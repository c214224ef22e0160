package core

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"sync/atomic"
	"time"

	"spotless/internal/crypto"
	"spotless/internal/protocol"
	"spotless/internal/types"
)

// Replica-local per-view protocol states (§3.4, RVS).
const (
	stRecording  = iota // ST1: waiting for an acceptable proposal (timer tR)
	stSyncing           // ST2: waiting for n−f Sync messages (no timer)
	stCertifying        // ST3: waiting for n−f matching claims (timer tA)
)

// proposal is the replica-local bookkeeping for one proposal of one
// instance, keyed by digest. A proposal may exist as a digest-only
// placeholder (known == false) learned from claims or CP entries before the
// full Propose message arrives via the Ask-recovery mechanism.
type proposal struct {
	digest       types.Digest
	view         types.View
	batch        *types.Batch
	parentView   types.View
	parentDigest types.Digest
	parent       *proposal
	msg          *types.Propose // original message, kept to serve Ask requests

	known         bool // full content recorded (S1–S4 checked)
	condPrepared  bool
	condCommitted bool
	committed     bool
	delivered     bool
	// claimQuorum records that n−f distinct replicas claimed this proposal
	// in its own view — the evidence tier above the f+1 conditional-prepare
	// adoption. Established by the local claim tally, by n−f collected sync
	// votes, or by a verified embedded certificate; the commit rule requires
	// it of the three-consecutive chain's tip (see maybeCommitChain).
	claimQuorum bool

	// Async certificate verification (the recovery path of §3.4): at most
	// one cert job is in flight per proposal, and a rejected certificate
	// is remembered by fingerprint so the same junk is not re-verified —
	// while a *different* cert for the same parent (say, from the next
	// honest primary) still gets its chance.
	certInFlight   bool
	certRejectedFP uint64

	// syncVotes collects claim signatures from Sync messages claiming this
	// proposal in its own view — the raw material of cert(P) (E1).
	syncVotes map[types.NodeID]types.Signature
	// cpVotes collects distinct senders whose CP sets contain this proposal
	// (the f+1 conditional-prepare rule and the n−f extension rule E2).
	cpVotes map[types.NodeID]struct{}
}

// viewState is the per-view message bookkeeping of one instance.
type viewState struct {
	syncs       map[types.NodeID]*types.Sync
	claimCounts map[types.Digest]int
	emptyCount  int
	ownSync     *types.Sync // our single claim in this view (Υ retransmission)
	accepted    *proposal   // the proposal we claimed, if any
	pending     *types.Propose
	echoed      bool
	asked       bool
	// phase is the view's resolution phase (see resolution.go): the
	// explicit proposed → claimed → resolved{batch|∅} → committed ladder
	// every safety-relevant transition is recorded against.
	phase resPhase
}

// Instance is one chained consensus instance of SpotLess (§3). All methods
// run on the replica's single event loop.
type Instance struct {
	r  *Replica
	id int32

	view      types.View
	state     int
	viewStart time.Duration
	// viewMirror mirrors view for off-loop readers (CurrentView): operator
	// polling and tests observe a live replica without racing the shard.
	viewMirror atomic.Uint64

	genesis *proposal
	props   map[types.Digest]*proposal
	views   map[types.View]*viewState

	// lock is Plock (§3.3). Re-derived against Lemma 3.4 (resolution.go):
	// it rises only through raiseLock — to the parent of a certified
	// proposal, or to a checkpoint anchor. Under UnsafeLegacyResolution it
	// instead follows the seed's conditionally-committed rule.
	lock        *proposal
	certHead    *proposal // highest proposal with n−f collected sync votes (E1)
	cpHead      *proposal // highest proposal with n−f CP endorsements (E2)
	lastCommit  *proposal // highest committed proposal
	lastDeliver types.View

	cpList []*proposal // conditionally prepared proposals (CP set source)
	// certTips holds certified proposals whose commit triple has not
	// completed; every certification event re-evaluates them (the triple's
	// links can certify in any order — see maybeCommitChains).
	certTips []*proposal

	// pm owns the adaptive-timer policy (§3.5) behind the Pacemaker
	// interface; certStart anchors the elapsed-time feedback it receives.
	pm        Pacemaker
	certStart time.Duration

	lastProgressView types.View // for periodic retransmission
	proposedView     types.View // highest view we already proposed (fast path)
	idleWait         types.View // highest view with a pending idle-backoff timer
	lastGapAsk       time.Duration
	// lastGapAsk rate-limits chain-gap Asks (state-transfer catch-up);
	// chainServeAt rate-limits ancestor-chain Ask service per requester.
	chainServeAt map[types.NodeID]time.Duration
	// gcFloor is the view below which checkpoint GC retired all state;
	// messages referencing older views are dropped rather than allowed to
	// regrow placeholders the GC just collected.
	gcFloor types.View

	// Outstanding VerifyAsync certificate jobs, keyed by the correlation
	// sequence carried in TimerTag.Seq (stale-completion discipline:
	// completions for unknown sequences are ignored).
	verifySeq uint64
	certJobs  map[uint64]certJob
}

// certJob is the state an async certificate verification resolves against.
type certJob struct {
	parent *proposal
	view   types.View // parent view per the justification
	fp     uint64     // fingerprint of the cert under verification
}

// certFingerprint identifies one embedded certificate (signers + signature
// bytes), so rejections can be remembered per cert rather than per parent.
func certFingerprint(cert []types.Signature) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, sig := range cert {
		binary.LittleEndian.PutUint32(b[:], uint32(sig.Signer))
		h.Write(b[:])
		h.Write(sig.Bytes)
	}
	return h.Sum64()
}

func newInstance(r *Replica, id int32) *Instance {
	g := &proposal{known: true, condPrepared: true, condCommitted: true, committed: true, delivered: true, claimQuorum: true}
	inst := &Instance{
		r:          r,
		id:         id,
		genesis:    g,
		props:      map[types.Digest]*proposal{g.digest: g},
		views:      make(map[types.View]*viewState),
		lock:       g,
		certHead:   g,
		cpHead:     g,
		lastCommit: g,
		certJobs:   make(map[uint64]certJob),
		pm:         r.newPacemaker(id),
		// A fresh (or restarted) replica's first chain-gap Ask must not be
		// rate-limited by the zero timestamp.
		lastGapAsk:   -r.cfg.RetransmitInterval,
		chainServeAt: make(map[types.NodeID]time.Duration),
	}
	return inst
}

func (in *Instance) vs(v types.View) *viewState {
	s, ok := in.views[v]
	if !ok {
		s = &viewState{
			syncs:       make(map[types.NodeID]*types.Sync),
			claimCounts: make(map[types.Digest]int),
		}
		in.views[v] = s
	}
	return s
}

func (in *Instance) quorum() int { return protocol.Quorum(in.r.cfg.N, in.r.cfg.F) }
func (in *Instance) weak() int   { return protocol.Weak(in.r.cfg.F) }

func (in *Instance) primaryOf(v types.View) types.NodeID {
	return PrimaryOf(in.id, v, in.r.cfg.N)
}

// getOrCreate returns the bookkeeping entry for a proposal digest, creating
// a placeholder when first referenced by a claim or CP entry.
func (in *Instance) getOrCreate(d types.Digest, v types.View) *proposal {
	if d.IsZero() {
		return in.genesis
	}
	p, ok := in.props[d]
	if !ok {
		p = &proposal{digest: d, view: v, syncVotes: make(map[types.NodeID]types.Signature), cpVotes: make(map[types.NodeID]struct{})}
		in.props[d] = p
	}
	return p
}

// ---------------------------------------------------------------------------
// View lifecycle
// ---------------------------------------------------------------------------

func (in *Instance) start() {
	// Periodic retransmission heartbeat (§3.5), re-armed on every expiry.
	in.r.ctx.SetTimer(in.r.cfg.RetransmitInterval, protocol.TimerTag{Kind: protocol.TimerRetransmit, Instance: in.id})
	in.enterView(1)
}

func (in *Instance) enterView(v types.View) {
	in.view = v
	in.viewMirror.Store(uint64(v))
	in.state = stRecording
	in.viewStart = in.r.ctx.Now()
	in.r.ctx.SetTimer(in.pm.EnterView(v), protocol.TimerTag{Kind: protocol.TimerRecording, Instance: in.id, View: v})
	if in.primaryOf(v) == in.r.ctx.ID() {
		in.propose(v)
	}
	s := in.vs(v)
	if s.pending != nil {
		p := s.pending
		s.pending = nil
		in.onPropose(p)
	}
	in.checkTransitions()
	if v%64 == 0 {
		in.prune()
	}
}

// propose implements the primary role (Figure 3, lines 12–14): pick the
// highest extendable proposal, wrap the next client batch, broadcast the
// Propose together with the matching Sync (Remark 3.1).
func (in *Instance) propose(v types.View) {
	if in.proposedView >= v {
		return // already proposed optimistically (fast path, §6.1)
	}
	batch := in.nextProposalBatch()
	if batch == nil {
		// Idle pacing: with no client batch pending, delay the no-op filler
		// by the pacemaker's IdleDelay instead of letting idle views spin
		// unboundedly. The timer re-invokes propose; a batch that arrived
		// meanwhile proposes then, and the no-op goes out only when the wait
		// expires with the queue still empty (idleWait marks the view already
		// waited for). Every arm caps the wait at tR/2 (see idlePacing): a
		// wait that outlives tR would let every backup (and ourselves)
		// claim(∅) before the paced proposal ever goes out — liveness would
		// then ride on client retransmissions. At tR/2 the proposal always
		// lands within the recording window, and the tR-halving rule cannot
		// shrink tR below twice the wait, so pacing self-stabilizes instead
		// of oscillating.
		if delay := in.pm.IdleDelay(v); delay > 0 && in.idleWait < v {
			in.idleWait = v
			in.r.ctx.SetTimer(delay,
				protocol.TimerTag{Kind: protocol.TimerPropose, Instance: in.id, View: v})
			return
		}
		batch = in.r.noopBatch(in.id, v)
	}
	in.proposedView = v
	_, just := in.highestExtendable(v)
	msg := &types.Propose{Instance: in.id, View: v, Batch: batch, Parent: just}
	d := msg.Digest()
	msg.Sig = in.r.ctx.Crypto().Sign(d[:])

	switch in.r.cfg.Behavior.Mode {
	case AttackDark:
		// A2: withhold the proposal from the victim set.
		for i := 0; i < in.r.cfg.N; i++ {
			id := types.NodeID(i)
			if id == in.r.ctx.ID() || in.r.cfg.Behavior.Victims[id] {
				continue
			}
			in.r.ctx.Send(id, msg)
		}
	case AttackEquivocate:
		// A3: conflicting proposals to disjoint halves.
		alt := &types.Propose{Instance: in.id, View: v, Batch: in.r.noopBatch(in.id, v), Parent: just}
		ad := alt.Digest()
		alt.Sig = in.r.ctx.Crypto().Sign(ad[:])
		for i := 0; i < in.r.cfg.N; i++ {
			id := types.NodeID(i)
			if id == in.r.ctx.ID() {
				continue
			}
			if in.r.cfg.Behavior.Victims[id] {
				in.r.ctx.Send(id, alt)
			} else {
				in.r.ctx.Send(id, msg)
			}
		}
	default:
		in.r.ctx.Broadcast(msg)
	}
	// Process our own proposal locally (records it and emits our Sync).
	in.onPropose(msg)
}

// nextProposalBatch pulls the batch for the next proposal. Under digest
// ordering it pops the replica's own next certified batch and proposes a
// payload-free stub — the digest reference that keeps consensus traffic
// constant-size; the delivery path resolves it back through the
// dissemination store. Without the layer it is the seed's direct source
// pull (inline payloads).
func (in *Instance) nextProposalBatch() *types.Batch {
	l := in.r.cfg.Dissem
	if l == nil {
		return in.r.ctx.NextBatch(in.id)
	}
	b := l.NextCertified()
	if b == nil {
		return nil
	}
	return &types.Batch{ID: b.ID, Submitted: b.Submitted}
}

// highestExtendable implements Figure 3 lines 5–11: backtrack to the highest
// proposal that is extendable under E1 (certificate) or E2 (n−f CP
// endorsements). The certificate is assembled from collected Sync
// signatures; per §3.4 signatures are verified lazily by receivers that need
// them, keeping the fast path MAC-priced.
func (in *Instance) highestExtendable(v types.View) (*proposal, types.Justification) {
	best := in.certHead
	useCert := true
	if in.cpHead != nil && in.cpHead.view > best.view {
		best = in.cpHead
		useCert = false
	}
	if best == in.genesis {
		return best, types.Justification{Kind: types.JustGenesis}
	}
	just := types.Justification{ParentView: best.view, ParentDigest: best.digest}
	if useCert && len(best.syncVotes) >= in.quorum() {
		just.Kind = types.JustCert
		just.Cert = make([]types.Signature, 0, in.quorum())
		for _, sig := range best.syncVotes {
			just.Cert = append(just.Cert, sig)
			if len(just.Cert) == in.quorum() {
				break
			}
		}
	} else {
		just.Kind = types.JustClaim
	}
	return best, just
}

// ---------------------------------------------------------------------------
// Propose handling (backup role, Figure 3 lines 15–17; checks S1–S4, A1–A3)
// ---------------------------------------------------------------------------

func (in *Instance) onPropose(msg *types.Propose) {
	v := msg.View
	if msg.Batch == nil { // S2: malformed
		return
	}
	if v < in.gcFloor {
		return // below the checkpoint GC floor: nobody correct needs it
	}
	if v > in.view+pendingWindow {
		return // flooding guard
	}
	d := msg.Digest()
	// S1: the proposal must carry the primary's signature. Its validity was
	// established by the verification pipeline before the message entered
	// the event loop (Replica.IngressJob); only the cheap identity check
	// remains here.
	if msg.Sig.Signer != in.primaryOf(v) {
		return
	}
	p := in.getOrCreate(d, v)
	if !p.known {
		p.known = true
		p.view = v
		p.batch = msg.Batch
		p.parentView = msg.Parent.ParentView
		p.parentDigest = msg.Parent.ParentDigest
		p.msg = msg
		if msg.Parent.Kind == types.JustGenesis {
			p.parent = in.genesis
		} else {
			p.parent = in.getOrCreate(msg.Parent.ParentDigest, msg.Parent.ParentView)
		}
		in.advancePhase(v, resProposed)
		in.linkKnown(p)
	}
	// S3: only proposals for the current view are voted on now; buffer ahead.
	if v > in.view {
		in.vs(v).pending = msg
		return
	}
	if v < in.view {
		return // recorded for Ask service only
	}
	in.tryAccept(p, msg)
}

// tryAccept applies S4 and the acceptance rules A1–A3 and, on success,
// broadcasts our Sync claim for the proposal. Proposals whose evidence may
// still arrive — an unprepared or uncertified parent — are buffered and
// retried when the evidence lands (condPrepare/certify → retryPending);
// an embedded certificate is fanned out for asynchronous verification.
func (in *Instance) tryAccept(p *proposal, msg *types.Propose) {
	s := in.vs(p.view)
	if s.ownSync != nil {
		return // one claim per view
	}
	if p.parent == nil {
		return // parent severed by checkpoint GC: a fork below the stable frontier
	}
	ok, wait := in.claimable(p)
	if !ok {
		if wait {
			s.pending = msg
			if msg.Parent.Kind == types.JustCert {
				in.requestCertVerify(p.parent, msg.Parent)
			}
		}
		return
	}
	if in.r.cfg.Behavior.Mode == AttackSubvert && !in.r.isAccomplice(msg.Sig.Signer) {
		return // A4: subvert non-faulty primaries by withholding votes
	}
	s.accepted = p
	in.sendSync(p.view, types.Claim{View: p.view, Digest: p.digest}, false)
	// Progress feedback (§3.5): the spotless arm halves tR when the awaited
	// proposal arrived within half the timeout; other arms reset their ramp.
	in.pm.ProposalAccepted(p.view, in.r.ctx.Now()-in.viewStart)
	// Geo fast path (§6.1): as the next view's primary, propose extending P
	// optimistically before its vote quorum completes. Backups still gate
	// their votes on A1, so a failed parent only costs this one proposal.
	if in.r.cfg.FastPath && p.view == in.view &&
		in.primaryOf(p.view+1) == in.r.ctx.ID() && in.proposedView <= p.view {
		in.proposeFast(p.view+1, p)
	}
	in.checkTransitions()
}

// proposeFast issues the optimistic fast-path proposal for view v extending
// the just-accepted parent (claim-justified; receivers rely on their own
// conditional-prepare state per rule A1).
func (in *Instance) proposeFast(v types.View, parent *proposal) {
	batch := in.nextProposalBatch()
	if batch == nil {
		if in.r.cfg.IdleBackoff > 0 {
			// Idle pacing: skip the optimistic no-op; the ordinary paced
			// propose path handles view v when we enter it.
			return
		}
		batch = in.r.noopBatch(in.id, v)
	}
	in.proposedView = v
	just := types.Justification{Kind: types.JustClaim, ParentView: parent.view, ParentDigest: parent.digest}
	msg := &types.Propose{Instance: in.id, View: v, Batch: batch, Parent: just}
	d := msg.Digest()
	msg.Sig = in.r.ctx.Crypto().Sign(d[:])
	in.r.ctx.Broadcast(msg)
	in.onPropose(msg) // buffers as pending until we enter view v
}

// claimable evaluates the acceptance rules for a proposal p against its
// parent (which must be linked). ok reports whether p may be claimed now;
// wait reports that the blocking evidence may still arrive — the caller
// buffers p and retryPending re-evaluates when it does.
//
// Strict mode (the Lemma 3.4 re-derivation, see resolution.go):
//
//	S4': the declared parent view must match the parent we hold — a
//	     justification lying about its parent's view could otherwise dodge
//	     the consecutive-view rule that feeds the commit triple.
//	A1:  the parent is conditionally prepared (unchanged: the adoption
//	     ladder of §3.3 carries liveness, not commit safety).
//	ACV: a parent in the directly preceding view must be certified —
//	     claims on commit-triple shapes must carry quorum evidence.
//	A2:  Plock ∈ {parent} ∪ precedes(parent) (unchanged), or
//	A3:  the parent is certified in a view above Plock (strengthened from
//	     the seed's bare view comparison).
//
// UnsafeLegacyResolution restores the seed rules: A1 plus (A2 ∨ bare A3).
func (in *Instance) claimable(p *proposal) (ok, wait bool) {
	parent := p.parent
	if parent == nil {
		return false, false
	}
	// Digest ordering (ACD): a non-noop proposal is claimable only when its
	// batch digest holds an availability certificate — the n−f ack quorum
	// proving the payload is retrievable at delivery. The gate binds to the
	// digest, not the wire payload, so a Byzantine primary inlining
	// transactions buys nothing. With ≤ f faulty replicas, an uncertified
	// digest can never gather the n−f claims a commit triple needs. The
	// certificate may still be in flight: register for the layer's notify,
	// re-check (closing the register/notify race), and backfill from the
	// proposal's primary; retryPending re-evaluates when it lands.
	if l := in.r.cfg.Dissem; l != nil && p.batch != nil && !p.batch.NoOp {
		if l.Ordered(p.batch.ID) {
			// Already delivered: a replayed certificate must not make an old
			// digest claimable again — its payload may be evicted on every
			// correct replica, so a commit would wedge delivery on an
			// impossible backfill. Refuse outright (no evidence is pending);
			// the view resolves without it.
			return false, false
		}
		if !l.Certified(p.batch.ID) {
			in.r.awaitDigest(in.id, p.batch.ID)
			if !l.Certified(p.batch.ID) {
				l.Backfill(p.batch.ID, in.primaryOf(p.view))
				return false, true
			}
			in.r.unawaitDigest(in.id, p.batch.ID)
		}
	}
	if in.r.cfg.UnsafeLegacyResolution {
		if !parent.condPrepared {
			return false, true // A1 may be satisfied later (CP votes, cert)
		}
		return in.lockCompatible(parent) || parent.view > in.lock.view, false
	}
	// S4': declared-parent consistency. A mismatch can also mean the claim
	// that first referenced the parent carried a stale view; the parent's
	// payload corrects it (linkKnown → retryPending).
	if parent != in.genesis && parent.view != p.parentView {
		return false, true
	}
	if !parent.condPrepared {
		return false, true // A1 may be satisfied later (CP votes, cert)
	}
	// ACV: consecutive-view claims require a certified parent. The steady
	// state satisfies it for free — entering view v+1 through view v's
	// claim quorum is exactly the parent's certification.
	if p.view == parent.view+1 && !parent.claimQuorum {
		return false, true
	}
	if in.lockCompatible(parent) { // A2
		return true, false
	}
	if parent.view > in.lock.view { // A3: certified parent above the lock
		if parent.claimQuorum {
			return true, false
		}
		return false, true // certification may still arrive
	}
	return false, false
}

// lockCompatible checks A2: Plock ∈ {parent} ∪ precedes(parent).
func (in *Instance) lockCompatible(parent *proposal) bool {
	for q := parent; q != nil; q = q.parent {
		if q == in.lock {
			return true
		}
		if q.view < in.lock.view {
			break
		}
		if !q.known {
			break
		}
	}
	return false
}

// requestCertVerify schedules verification of an embedded certificate —
// n−f signatures over the parent claim — as one asynchronous batch job
// (only the recovery path needs it, §3.4). At most one job per parent is in
// flight, and a parent whose certificate was rejected is not re-verified:
// Byzantine primaries cannot starve the pipeline, and the CP-vote path
// still conditionally prepares the parent when f+1 honest endorsements
// arrive.
func (in *Instance) requestCertVerify(parent *proposal, j types.Justification) {
	if parent.certInFlight || len(j.Cert) < in.quorum() ||
		crypto.DistinctSigners(j.Cert) < in.quorum() {
		return
	}
	fp := certFingerprint(j.Cert)
	if fp != 0 && fp == parent.certRejectedFP {
		return // this exact cert already failed; don't re-verify it
	}
	parent.certInFlight = true
	in.verifySeq++
	in.certJobs[in.verifySeq] = certJob{parent: parent, view: j.ParentView, fp: fp}
	claim := types.ClaimBytes(in.id, types.Claim{View: j.ParentView, Digest: j.ParentDigest})
	checks := make([]crypto.Check, len(j.Cert))
	for i, sig := range j.Cert {
		checks[i] = crypto.Check{Sig: sig, Msg: claim}
	}
	in.r.ctx.VerifyAsync(protocol.VerifyJob{
		Tag:    protocol.TimerTag{Kind: protocol.TimerVerify, Instance: in.id, Seq: in.verifySeq},
		Checks: checks,
		Quorum: in.quorum(),
	})
}

// onVerified consumes an async certificate-verification completion.
// Stale-completion discipline: sequences not in certJobs (pruned, or
// already resolved through another path) are ignored.
func (in *Instance) onVerified(tag protocol.TimerTag, ok bool) {
	job, present := in.certJobs[tag.Seq]
	if !present {
		return
	}
	delete(in.certJobs, tag.Seq)
	job.parent.certInFlight = false
	if !ok {
		job.parent.certRejectedFP = job.fp
		// A different proposal (with a different, possibly valid cert) may
		// have been buffered while this job was in flight — retry it now
		// rather than waiting for retransmission.
		in.retryPending()
		return
	}
	if !job.parent.condPrepared {
		job.parent.view = job.view
		in.condPrepare(job.parent) // retries the buffered proposal
	} else {
		in.retryPending()
	}
	// A valid certificate is n−f signed claims for the parent in its own
	// view: exactly the certification the commit rule and the strengthened
	// A3/ACV acceptance rules require.
	in.certify(job.parent)
}

// sendSync broadcasts our Sync for view v with the given claim and records
// it locally (we count our own vote; Remark 3.1).
func (in *Instance) sendSync(v types.View, claim types.Claim, retransmit bool) {
	cp := in.buildCP()
	sig := in.r.ctx.Crypto().Sign(types.ClaimBytes(in.id, claim))
	msg := &types.Sync{Instance: in.id, View: v, Claim: claim, CP: cp, Retransmit: retransmit, Sig: sig}
	s := in.vs(v)
	s.ownSync = msg
	in.advancePhase(v, resClaimed)

	if in.r.cfg.Behavior.Mode == AttackEquivocate && !claim.Empty {
		// A3: conflicting concurring votes — empty claim to the victims.
		altClaim := types.Claim{View: v, Empty: true}
		alt := &types.Sync{Instance: in.id, View: v, Claim: altClaim, CP: cp,
			Sig: in.r.ctx.Crypto().Sign(types.ClaimBytes(in.id, altClaim))}
		for i := 0; i < in.r.cfg.N; i++ {
			id := types.NodeID(i)
			if id == in.r.ctx.ID() {
				continue
			}
			if in.r.cfg.Behavior.Victims[id] {
				in.r.ctx.Send(id, alt)
			} else {
				in.r.ctx.Send(id, msg)
			}
		}
	} else {
		in.r.ctx.Broadcast(msg)
	}
	if v >= in.view {
		in.recordSync(in.r.ctx.ID(), msg)
	}
	if in.state == stRecording && v == in.view {
		in.state = stSyncing
	}
}

// buildCP assembles the CP set: views and digests of all conditionally
// prepared proposals with view ≥ v_lock (§3.3).
func (in *Instance) buildCP() []types.CPEntry {
	out := make([]types.CPEntry, 0, 4)
	keep := in.cpList[:0]
	for _, p := range in.cpList {
		if p.view < in.lock.view || !p.condPrepared {
			continue
		}
		keep = append(keep, p)
		out = append(out, types.CPEntry{View: p.view, Digest: p.digest})
	}
	in.cpList = keep
	return out
}

// ---------------------------------------------------------------------------
// Sync handling (Figure 3 lines 20–28, Figure 4)
// ---------------------------------------------------------------------------

func (in *Instance) onSync(from types.NodeID, msg *types.Sync) {
	v := msg.View
	if v > in.view+4*pendingWindow {
		return // flooding guard: implausibly far future
	}
	// Υ: retransmit our view-v Sync to a replica trying to catch up (§3.4).
	if msg.Retransmit {
		if s, ok := in.views[v]; ok && s.ownSync != nil && from != in.r.ctx.ID() {
			in.r.ctx.Send(from, s.ownSync)
		}
	}
	in.recordSync(from, msg)
}

// recordSync ingests one Sync message: dedups per (view, sender), updates
// claim tallies, CP endorsements, and certificate material, then evaluates
// all RVS transitions.
func (in *Instance) recordSync(from types.NodeID, msg *types.Sync) {
	v := msg.View
	if v < in.gcFloor {
		return // the view's state was retired by checkpoint GC
	}
	s := in.vs(v)
	if _, dup := s.syncs[from]; !dup {
		s.syncs[from] = msg
		// A claim is evidence only for its own view: a Sync of view v
		// carrying a claim for some other view must not enter view v's
		// tallies — a flood of mismatched claims could otherwise resolve a
		// view (∅ or batch) with evidence that belongs to neither.
		if msg.Claim.Empty {
			if msg.Claim.View == v {
				s.emptyCount++
			}
		} else if msg.Claim.View == v {
			s.claimCounts[msg.Claim.Digest]++
			p := in.getOrCreate(msg.Claim.Digest, msg.Claim.View)
			// Only sender-bound signatures become certificate material:
			// a relayed third-party signature would later assemble into
			// a cert short of distinct signers (§3.4). A nil vote map
			// marks a proposal pruned past retention (prune/gcToAnchor):
			// votes for it no longer matter, and must not be recorded —
			// a lagging replica's Sync can reference arbitrarily old
			// proposals.
			if msg.Claim.View == p.view && msg.Sig.Signer == from && p.syncVotes != nil {
				p.syncVotes[from] = msg.Sig
				if len(p.syncVotes) >= in.quorum() {
					if p.view > in.certHead.view {
						in.certHead = p
					}
					in.certify(p)
				}
			}
			// n−f distinct claims in the proposal's own view certify it —
			// the quorum the commit rule requires of every triple link.
			if p.view == v && s.claimCounts[msg.Claim.Digest] >= in.quorum() {
				in.certify(p)
			}
		}
		// CP endorsements: f+1 distinct endorsers conditionally prepare the
		// proposal (Figure 3, lines 22–23); n−f make it extendable (E2).
		for _, e := range msg.CP {
			if e.View < in.gcFloor {
				continue // retired by checkpoint GC; do not regrow
			}
			p := in.getOrCreate(e.Digest, e.View)
			if p.cpVotes == nil {
				continue // pruned past retention (see above)
			}
			p.cpVotes[from] = struct{}{}
			if len(p.cpVotes) >= in.weak() && !p.condPrepared {
				in.condPrepare(p)
			}
			if len(p.cpVotes) >= in.quorum() && p.view > in.cpHead.view {
				in.cpHead = p
			}
		}
		// Rapid view synchronization: f+1 replicas at view ≥ w > v let us
		// jump to w (Figure 4, lines 12–15). One view of skew is normal
		// pipelining (the quorum path absorbs it); jump only when genuinely
		// behind, which keeps steady-state traffic at the n² of Figure 1.
		if v > in.view+1 && len(s.syncs) >= in.weak() {
			in.catchUpTo(v)
			return
		}
	}
	in.checkTransitions()
}

// catchUpTo jumps to view w after f+1 replicas proved views ≥ w exist,
// broadcasting Sync(u, claim(∅), CP, Υ) for the skipped views so peers both
// count us and retransmit what we missed.
func (in *Instance) catchUpTo(w types.View) {
	lo := in.view
	if w-lo > catchupWindow {
		lo = w - catchupWindow
	}
	for u := lo; u < w; u++ {
		if in.vs(u).ownSync == nil {
			in.sendSync(u, types.Claim{View: u, Empty: true}, true)
		}
	}
	// A catch-up jump is a resync event: record how long the instance sat in
	// the view it fell behind at (soak instrumentation + /metrics).
	in.r.noteResync(in.r.ctx.Now() - in.viewStart)
	in.enterView(w)
}

// checkTransitions evaluates every state transition enabled by the current
// view's tallies (Figure 4).
func (in *Instance) checkTransitions() {
	v := in.view
	s := in.vs(v)
	q := in.quorum()

	// f+1 matching claims: echo the claim and fetch the payload via Ask
	// (restoration of liveness, §3.3). The echo passes through the same
	// acceptance rules as a direct claim: a claim we cannot check — the
	// proposal is unknown, or its parent lacks the required evidence —
	// is never echoed, only fetched; the claim follows through tryAccept
	// once the payload arrives. The seed echoed unknown claims on the f+1
	// backing alone, which let a locked replica complete a claim quorum
	// for a chain conflicting with its own lock (the fork-commit path);
	// UnsafeLegacyResolution retains that behaviour for the safety drill.
	if s.ownSync == nil && !s.echoed {
		for _, d := range in.weakClaims(s) {
			p := in.getOrCreate(d, v)
			if p.view != v {
				continue // a claim naming an out-of-view digest is not a view-v claim
			}
			if in.echoAcceptable(p) {
				s.echoed = true
				in.sendSync(v, types.Claim{View: v, Digest: d}, false)
				if !p.known {
					in.askFor(p, v)
				}
				break
			}
			if !p.known && !s.asked {
				s.asked = true
				in.askFor(p, v)
			}
		}
	}

	// Our echo can complete view v's quorum: sendSync then resolved v and
	// entered v+1 before returning. Nothing is left to do for v, and
	// in.state now belongs to v+1, which view v's tallies must not move on.
	if in.view != v {
		return
	}

	// ST2 → ST3: n−f Sync messages of the current view.
	if in.state == stSyncing && len(s.syncs) >= q {
		in.state = stCertifying
		in.certStart = in.r.ctx.Now()
		in.r.ctx.SetTimer(in.pm.EnterCertify(v), protocol.TimerTag{Kind: protocol.TimerCertifying, Instance: in.id, View: v})
	}

	// n−f matching claims: the view resolves to the certified proposal;
	// conditionally prepare it and advance (lines 10–11).
	for d, c := range s.claimCounts {
		if c >= q {
			p := in.getOrCreate(d, v)
			if p.view != v {
				continue
			}
			in.certify(p)
			if !p.condPrepared {
				in.condPrepare(p)
			}
			if !p.known && !s.asked {
				s.asked = true
				in.askFor(p, v)
			}
			if in.state == stCertifying {
				in.pm.ViewCertified(v, in.r.ctx.Now()-in.certStart)
			}
			if in.view == v {
				in.enterView(v + 1)
			}
			return
		}
	}
	// n−f matching empty claims: the view resolved ∅ for everyone — the
	// quorum-intersection evidence that no conflicting tip can certify in
	// this view (resolution.go) — and the instance advances.
	if s.emptyCount >= q && in.view == v {
		in.resolveEmpty(v)
		in.enterView(v + 1)
	}
}

// weakClaims returns the digests holding ≥ f+1 claims in deterministic
// order (count descending, then digest bytes): claim tallies live in a map,
// and iterating it on a message-emitting path would make the echo choice —
// and therefore the whole simulation — nondeterministic under equivocation.
func (in *Instance) weakClaims(s *viewState) []types.Digest {
	out := make([]types.Digest, 0, 2)
	for d, c := range s.claimCounts {
		if c >= in.weak() {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if ci, cj := s.claimCounts[out[i]], s.claimCounts[out[j]]; ci != cj {
			return ci > cj
		}
		return string(out[i][:]) < string(out[j][:])
	})
	return out
}

// echoAcceptable applies the acceptance rules to a claim-backed proposal.
// Strict mode echoes only claims it can fully check; the legacy mode trusts
// the f+1 backing for unknown proposals (§3.3's original reading — unsound,
// see checkTransitions).
func (in *Instance) echoAcceptable(p *proposal) bool {
	if in.r.cfg.Behavior.Mode == AttackSubvert {
		return false
	}
	if in.r.cfg.UnsafeLegacyResolution {
		if !p.known {
			return true
		}
		ok, _ := in.claimable(p)
		return ok
	}
	if !p.known || p.parent == nil {
		return false
	}
	ok, _ := in.claimable(p)
	return ok
}

// askFor requests the full proposal behind a claim from up to f+1 replicas
// that vouched for it. Voucher sets live in maps; targets are sorted so the
// same state always asks the same peers (simulation determinism).
func (in *Instance) askFor(p *proposal, v types.View) {
	ask := &types.Ask{Instance: in.id, View: v, Claim: types.Claim{View: p.view, Digest: p.digest}}
	self := in.r.ctx.ID()
	targets := make([]types.NodeID, 0, 2*in.weak())
	if s, ok := in.views[p.view]; ok {
		for from, m := range s.syncs {
			if !m.Claim.Empty && m.Claim.Digest == p.digest && from != self {
				targets = append(targets, from)
			}
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	vouchers := len(targets)
	if vouchers < in.weak() {
		cps := make([]types.NodeID, 0, len(p.cpVotes))
		for from := range p.cpVotes {
			if from != self {
				cps = append(cps, from)
			}
		}
		sort.Slice(cps, func(i, j int) bool { return cps[i] < cps[j] })
		targets = append(targets, cps...)
	}
	sent := 0
	seen := make(map[types.NodeID]bool, len(targets))
	for _, from := range targets {
		if seen[from] {
			continue
		}
		seen[from] = true
		in.r.ctx.Send(from, ask)
		if sent++; sent >= in.weak() {
			return
		}
	}
}

func (in *Instance) onAsk(from types.NodeID, msg *types.Ask) {
	p, ok := in.props[msg.Claim.Digest]
	if !ok || !p.known || p.msg == nil {
		return
	}
	in.r.ctx.Send(from, p.msg)
	if !in.r.ckptEnabled() {
		return
	}
	// Recovery aid (checkpoint deployments): a replica backfilling a
	// committed-chain gap after a state-transfer install needs the whole
	// ancestor chain, and discovers parent digests only as payloads arrive
	// — serving one link per Ask round trip would cost a rate-limited
	// round per missing link. Serve the retained ancestor chain along with
	// the requested proposal, bounded by the catch-up window and, against
	// bandwidth-amplification abuse (every Ask would otherwise cost up to
	// catchupWindow full batches), rate-limited per requester.
	now := in.r.ctx.Now()
	if last, ok := in.chainServeAt[from]; ok && now-last < in.r.cfg.RetransmitInterval {
		return
	}
	in.chainServeAt[from] = now
	sent := 0
	for q := p.parent; q != nil && q.known && q.msg != nil; q = q.parent {
		in.r.ctx.Send(from, q.msg)
		if sent++; sent >= catchupWindow {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Proposal state progression (Definition 3.3)
// ---------------------------------------------------------------------------

// condPrepare marks a proposal conditionally prepared and derives the
// downstream states: its parent becomes conditionally committed (and
// possibly the new lock), and a three-consecutive-view chain commits the
// grandparent (§3.2).
func (in *Instance) condPrepare(p *proposal) {
	if p.condPrepared {
		return
	}
	p.condPrepared = true
	in.cpList = append(in.cpList, p)
	if p.known {
		in.deriveStates(p)
	}
	in.retryPending()
}

// linkKnown is called when a placeholder proposal gains its payload; it
// resolves deferred state implications and unblocks pending accepts. A
// certified placeholder's lock raise and commit evaluation were deferred
// until its parent link became known — they run now.
func (in *Instance) linkKnown(p *proposal) {
	if p.condPrepared {
		in.deriveStates(p)
	}
	if p.claimQuorum && !in.r.cfg.UnsafeLegacyResolution {
		if p.parent != nil {
			in.raiseLock(p.parent)
		}
		in.maybeCommitChains()
	}
	// Commit propagation across a healed chain link: if p was committed
	// while still a placeholder, the commit walk stopped at its nil parent
	// pointer and p's ancestors stayed unmarked. Extend the commitment now
	// that the ancestry is known — without this, the delivery walk reads
	// the uncommitted ancestors as ∅-resolved gaps and permanently skips
	// their batches on this replica alone: the block-for-block ledger
	// divergence of the PR 4 ROADMAP discovery (the drill's seed-8 shape;
	// legacy mode reproduces it, which is what the drill's negative
	// control pins).
	if !in.r.cfg.UnsafeLegacyResolution &&
		p.committed && p.parent != nil && !p.parent.committed {
		in.commit(p.parent)
	}
	in.retryPending()
	in.maybeDeliver()
}

// retryPending re-attempts acceptance of a buffered current-view proposal
// whose A1 precondition may have become true.
func (in *Instance) retryPending() {
	s, ok := in.views[in.view]
	if !ok || s.pending == nil || s.ownSync != nil {
		return
	}
	msg := s.pending
	s.pending = nil
	in.tryAccept(in.getOrCreate(msg.Digest(), msg.View), msg)
}

func (in *Instance) deriveStates(p *proposal) {
	parent := p.parent
	if parent == nil {
		return
	}
	if !parent.condPrepared {
		// A1 guaranteed the primary's quorum saw it; adopt transitively
		// (Lemma 3.4: n−2f non-faulty replicas conditionally prepared it).
		in.condPrepare(parent)
	}
	if parent != in.genesis && !parent.condCommitted {
		parent.condCommitted = true
		// The seed raised Plock here — on conditional commitment, whose
		// evidence floor is a single honest endorser. Strict resolution
		// raises the lock only at the certification choke point
		// (resolution.go); the conditionally-committed label itself
		// remains the CP-set and state-progression marker of §3.3.
		if in.r.cfg.UnsafeLegacyResolution {
			in.raiseLock(parent)
		}
	}
	if in.r.cfg.UnsafeLegacyResolution {
		in.maybeCommitChain(p)
	} else {
		in.maybeCommitChains()
	}
	in.maybeDeliver()
}

// maybeCommitChain applies the commit rule with p as the chain tip:
// u = w+1 = v+2 (three consecutive views, Definition 3.3). Strict
// resolution requires ALL THREE links of the triple to be certified — the
// three quorums Lemma 3.4's intersection argument stands on — and the
// declared parent views to match the links we hold (a justification lying
// about its parent's view must not assemble a triple). The legacy rule —
// the PR 4 state, kept as the safety drill's negative control — asks a
// claim quorum of the tip only, leaving the middle and base links on
// conditional-prepare evidence that one honest endorser can carry.
func (in *Instance) maybeCommitChain(p *proposal) {
	if !p.claimQuorum || !p.condPrepared || !p.known {
		return
	}
	parent := p.parent
	if parent == nil || !parent.known {
		return
	}
	gp := parent.parent
	if gp == nil || p.view != parent.view+1 || parent.view != gp.view+1 {
		return
	}
	if !in.r.cfg.UnsafeLegacyResolution {
		if !parent.claimQuorum || !gp.claimQuorum {
			return // the triple's quorums are not complete yet
		}
		if p.parentView != parent.view || parent.parentView != gp.view {
			return // declared links disagree with the chain we hold
		}
	}
	in.commit(gp)
}

// commit finalizes a proposal and its entire ancestor chain.
func (in *Instance) commit(p *proposal) {
	if p.committed {
		return
	}
	// Collect the uncommitted ancestor chain (ascending views).
	var chain []*proposal
	for q := p; q != nil && !q.committed; q = q.parent {
		chain = append(chain, q)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		chain[i].committed = true
		in.advancePhase(chain[i].view, resCommitted)
		if chain[i].view > in.lastCommit.view {
			in.lastCommit = chain[i]
		}
	}
	in.maybeDeliver()
}

// maybeDeliver hands committed proposals to the replica's total-order layer
// in chain order, head-of-line blocking on proposals whose payload is still
// being fetched (Ask).
func (in *Instance) maybeDeliver() {
	// Walk from the last delivered view upward along the committed chain.
	for {
		next, blocked := in.nextCommittedAfter(in.lastDeliver)
		if next == nil || !next.known {
			if blocked == nil && next != nil && !next.known {
				blocked = next
			}
			in.askChainGap(blocked)
			return
		}
		next.delivered = true
		in.lastDeliver = next.view
		// Hand off by value: the ordering stage must not share the mutable
		// proposal bookkeeping (prune may nil fields later), only the
		// immutable batch and identifiers.
		in.r.onCommitted(in.id, orderedCommit{view: next.view, batch: next.batch, dig: next.digest})
	}
}

// nextCommittedAfter finds the lowest committed, undelivered proposal with
// view > v by walking down from the committed head. blocked reports the
// chain link whose payload is still missing when continuity cannot be
// certified yet.
func (in *Instance) nextCommittedAfter(v types.View) (candidate, blocked *proposal) {
	for q := in.lastCommit; q != nil && q.view > v; q = q.parent {
		if q.committed && !q.delivered {
			candidate = q
		}
		if !q.known {
			return nil, q // cannot certify chain continuity yet
		}
		if !q.committed && !in.r.cfg.UnsafeLegacyResolution {
			// An uncommitted link below the committed head: commitment has
			// not propagated down this part of the chain yet (a healed
			// placeholder link; linkKnown is about to extend it). A view
			// counts as ∅-resolved only when the committed chain itself
			// jumps over it — never because a chain member is still
			// catching up, which would skip its batch for good.
			return nil, q
		}
	}
	return candidate, nil
}

// askChainGap fetches the payload of a committed-chain link this replica
// never recorded. After a checkpoint install the chain between the anchor
// and the present was learned from claims only, and head-of-line delivery
// blocks until the payloads arrive — but the per-view Sync records that
// would normally name vouchers are gone, so after asking any recorded
// vouchers we fall back to a deterministic f+1 peer set (every correct
// replica that delivered past the gap still retains it above the stable
// frontier). Rate-limited to one gap per retransmission interval; inert
// when checkpointing is disabled, preserving the seed behaviour.
func (in *Instance) askChainGap(p *proposal) {
	if p == nil || p.known || !in.r.ckptEnabled() {
		return
	}
	now := in.r.ctx.Now()
	if now-in.lastGapAsk < in.r.cfg.RetransmitInterval {
		return
	}
	in.lastGapAsk = now
	in.askFor(p, in.view)
	ask := &types.Ask{Instance: in.id, View: in.view, Claim: types.Claim{View: p.view, Digest: p.digest}}
	self := in.r.ctx.ID()
	for i, sent := 0, 0; i < in.r.cfg.N && sent < in.weak(); i++ {
		id := types.NodeID((int(self) + 1 + i) % in.r.cfg.N)
		if id == self {
			continue
		}
		in.r.ctx.Send(id, ask)
		sent++
	}
}

// ---------------------------------------------------------------------------
// Checkpoint integration (see checkpoint.go)
// ---------------------------------------------------------------------------

// installAnchor adopts a stable-checkpoint anchor as this instance's new
// delivery frontier: the anchor proposal is recorded as decided (the
// checkpoint certificate stands in for the per-view quorums that decided
// it), state behind it is collected, and the instance re-enters the
// rotation in the view after the anchor.
func (in *Instance) installAnchor(a types.Anchor) {
	if a.View == 0 {
		return // the instance had delivered nothing at the checkpoint cut
	}
	p := in.getOrCreate(a.Digest, a.View)
	p.view = a.View
	p.known = true
	p.condPrepared, p.condCommitted = true, true
	p.committed, p.delivered = true, true
	p.claimQuorum = true // the checkpoint certificate stands in for the quorums
	if in.lastDeliver < a.View {
		in.lastDeliver = a.View
	}
	in.gcToAnchor(a)
	if in.view <= a.View {
		// State transfer advanced the instance past views it never ran — the
		// heavyweight resync path (a restarted or long-partitioned replica).
		in.r.noteResync(in.r.ctx.Now() - in.viewStart)
		in.enterView(a.View + 1)
	} else {
		in.retryPending()
		in.maybeDeliver()
	}
}

// gcToAnchor garbage-collects consensus state behind a stable-checkpoint
// anchor: view bookkeeping and proposals strictly below the anchor view are
// dropped, chain links into the pruned region are severed (so the
// historical proposal chain becomes collectable rather than pinned by
// parent pointers), and the lock/head references are raised to the anchor
// when they point below it — the anchor is committed, so locking on it is
// always safe.
func (in *Instance) gcToAnchor(a types.Anchor) {
	if a.View == 0 {
		return
	}
	anchor := in.getOrCreate(a.Digest, a.View)
	if in.gcFloor < a.View {
		in.gcFloor = a.View
	}
	if in.lock.view < a.View {
		// The checkpoint certificate stands in for the per-view quorums:
		// the anchor is committed, so locking on it is grounded evidence.
		in.raiseLock(anchor)
	}
	if in.certHead.view < a.View {
		in.certHead = anchor
	}
	if in.cpHead.view < a.View {
		in.cpHead = anchor
	}
	if in.lastCommit.view < a.View {
		in.lastCommit = anchor
	}
	horizon := a.View
	for v := range in.views {
		if v < horizon {
			delete(in.views, v)
		}
	}
	for d, p := range in.props {
		if p == in.genesis || p == anchor {
			continue
		}
		if p.view < horizon {
			delete(in.props, d)
			continue
		}
		if p.parent != nil && p.parent != in.genesis && p.parent != anchor && p.parent.view < horizon {
			p.parent = nil // sever links into the pruned region
		}
	}
	// The anchor's own parent link would otherwise pin the entire
	// pre-checkpoint chain (and every retained batch) in the heap even
	// after the map entries are gone. All walks stop at the anchor — it is
	// committed and delivered — so severing is safe.
	if anchor.parent != nil && anchor.parent != in.genesis {
		anchor.parent = nil
	}
	keep := in.cpList[:0]
	for _, p := range in.cpList {
		if p.view >= horizon {
			keep = append(keep, p)
		}
	}
	in.cpList = keep
	tips := in.certTips[:0]
	for _, p := range in.certTips {
		if p.view >= horizon && !p.committed {
			tips = append(tips, p)
		}
	}
	for i := len(tips); i < len(in.certTips); i++ {
		in.certTips[i] = nil
	}
	in.certTips = tips
}

// ---------------------------------------------------------------------------
// Timers (§3.5)
// ---------------------------------------------------------------------------

func (in *Instance) onTimer(tag protocol.TimerTag) {
	switch tag.Kind {
	case protocol.TimerRecording:
		if tag.View != in.view || in.state != stRecording {
			return
		}
		// Failure in view v: claim(∅) (Figure 3, lines 18–19).
		in.pm.RecordingExpired(tag.View)
		if in.vs(tag.View).ownSync == nil {
			in.sendSync(tag.View, types.Claim{View: tag.View, Empty: true}, false)
		}
		// Our claim may have completed the ∅ quorum, and sendSync then
		// already entered v+1; that view must stay in stRecording, or its
		// recording timer is ignored and this replica never claims in it.
		if in.view == tag.View {
			in.state = stSyncing
		}
		in.checkTransitions()
	case protocol.TimerCertifying:
		if tag.View != in.view || in.state != stCertifying {
			return
		}
		in.pm.CertifyExpired(tag.View)
		in.enterView(tag.View + 1)
	case protocol.TimerPropose:
		// Idle-backoff expiry: if this view still awaits our proposal, issue
		// it now — NextBatch may have a batch by now; otherwise the no-op
		// goes out (idleWait stops propose from re-arming for this view).
		// Stale-timer discipline: views we left (catch-up jumps, empty-claim
		// advances) are ignored, and so is a view we already claimed in —
		// proposing after our own claim(∅) would consume a client batch into
		// a proposal nobody can vote for.
		if tag.View != in.view || in.proposedView >= tag.View ||
			in.primaryOf(tag.View) != in.r.ctx.ID() ||
			in.vs(tag.View).ownSync != nil {
			return
		}
		in.propose(tag.View)
	case protocol.TimerRetransmit:
		// Periodic retransmission while stuck (§3.5): after two heartbeats
		// with no view progress and our claim already out (Syncing or
		// Certifying), rebroadcast our Sync with Υ so peers resend theirs.
		// The recording path is covered by tR; a fresh view never needs it.
		if in.view == in.lastProgressView && in.state != stRecording {
			s := in.vs(in.view)
			if s.ownSync != nil {
				re := *s.ownSync
				re.Retransmit = true
				in.r.ctx.Broadcast(&re)
			}
		}
		in.lastProgressView = in.view
		// Replica-level piggyback (once per heartbeat, not per instance):
		// re-advertise the newest checkpoint attestation when the cluster
		// idles, so a restarted replica can still discover the stable
		// frontier (see readvertiseCheckpoint — ordering-shard state, hence
		// the post).
		if in.id == 0 {
			in.r.post(protocol.OrderingShard, in.r.readvertiseCheckpoint)
		}
		in.r.ctx.SetTimer(in.r.cfg.RetransmitInterval, protocol.TimerTag{Kind: protocol.TimerRetransmit, Instance: in.id})
	}
}

func clampTimeout(d time.Duration, cfg Config) time.Duration {
	if d < cfg.MinTimeout {
		return cfg.MinTimeout
	}
	if d > maxTimeout {
		return maxTimeout
	}
	return d
}

// pruneEmergencyProps is the per-instance footprint at which the prune
// backstop opens under checkpointing (see prune).
const pruneEmergencyProps = 1 << 16

// prune discards bookkeeping behind the committed frontier (retention
// window), bounding memory in long runs. With checkpointing enabled the
// stable frontier drives GC instead (gcToAnchor), and the GC contract is
// that everything above the stable frontier stays Ask-servable — views
// advance thousands of times faster than deliveries under no-op spin, so
// a view-anchored window here would destroy payloads peers still need and
// turn transient chain holes permanent. prune therefore acts only as an
// emergency valve for a wedged stable frontier (replicas disagreeing on
// the interval, state divergence): it stays closed until the per-instance
// footprint exceeds a hard cap, then reclaims behind a widened window.
func (in *Instance) prune() {
	window := types.View(in.r.cfg.RetentionViews)
	if in.r.ckptEnabled() {
		if len(in.props) < pruneEmergencyProps && len(in.views) < pruneEmergencyProps {
			return
		}
		window *= 4
	}
	if in.lastDeliver < window {
		return
	}
	horizon := in.lastDeliver - window
	for v := range in.views {
		if v < horizon {
			delete(in.views, v)
		}
	}
	for d, p := range in.props {
		if p.view < horizon && p.delivered {
			p.batch = nil
			p.msg = nil
			p.syncVotes = nil
			p.cpVotes = nil
			if p.view+window < horizon {
				delete(in.props, d)
			}
		}
	}
}
