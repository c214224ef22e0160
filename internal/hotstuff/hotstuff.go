// Package hotstuff implements the chained HotStuff baseline of §6.2: a
// rotational, pipelined BFT protocol committing on three-chains. Following
// the paper's port, threshold signatures are represented as lists of n−f
// individual signatures, whose verification cost dominates the protocol's
// critical path (and explains its low throughput in Figures 7 and 15).
//
// The block payload is pluggable so internal/narwhal can reuse the ordering
// core with digest-only blocks.
package hotstuff

import (
	"time"

	"spotless/internal/crypto"
	"spotless/internal/protocol"
	"spotless/internal/types"
)

// Config parameterizes a HotStuff replica.
type Config struct {
	N, F       int
	MinTimeout time.Duration
	// Payload supplies the block content for a proposing leader; nil uses
	// NextBatch(0). Narwhal-HS injects certified-batch references instead.
	Payload func(v types.View) (*types.Batch, []types.Digest)
	// OnCommit overrides delivery; nil delivers the block batch directly.
	OnCommit func(c types.Commit, refs []types.Digest)
	// SkipQCVerify disables backup-side QC verification (ablation knob for
	// the signature-cost experiments).
	SkipQCVerify bool
	// Behavior configures Byzantine deviation for the attack experiments
	// (Figure 15).
	Behavior protocol.Behavior
}

const (
	// viewTimeout is the pacemaker's initial timeout (adaptive: doubles on
	// consecutive timeouts, halves on fast progress).
	viewTimeout = 300 * time.Millisecond
	maxTimeout  = 5 * time.Second // the cap of that doubling
)

// DefaultConfig returns the tuned baseline configuration. The pacemaker
// floor tracks the QC-verification latency (n−f signature checks sit on the
// view critical path, §6.2), or large clusters churn on spurious timeouts.
func DefaultConfig(n int) Config {
	f := (n - 1) / 3
	return Config{
		N:          n,
		F:          f,
		MinTimeout: 20*time.Millisecond + time.Duration(n-f)*300*time.Microsecond,
	}
}

type block struct {
	digest  types.Digest
	view    types.View
	parent  types.Digest
	batch   *types.Batch
	refs    []types.Digest
	justify types.QC

	committed bool
	height    uint64
}

// Replica is one chained-HotStuff replica.
type Replica struct {
	ctx protocol.Context
	cfg Config

	view    types.View
	blocks  map[types.Digest]*block
	genesis *block

	highQC   types.QC
	lockView types.View // view of the locked (one-chain) block

	votes map[types.View]map[types.NodeID]types.Signature
	nvQC  map[types.View]map[types.NodeID]bool

	lastExec   *block
	timeout    time.Duration
	lastTOView types.View
	viewStart  time.Duration

	// Delivered counts committed blocks (testing).
	Delivered uint64
}

// New creates a HotStuff replica.
func New(ctx protocol.Context, cfg Config) *Replica {
	g := &block{committed: true}
	r := &Replica{
		ctx:      ctx,
		cfg:      cfg,
		blocks:   map[types.Digest]*block{g.digest: g},
		genesis:  g,
		votes:    make(map[types.View]map[types.NodeID]types.Signature),
		nvQC:     make(map[types.View]map[types.NodeID]bool),
		lastExec: g,
		timeout:  viewTimeout,
		highQC:   types.QC{Genesis: true},
		// Sentinel: a first timeout at view 1 is not "consecutive".
		lastTOView: ^types.View(0) - 1,
	}
	return r
}

func (r *Replica) quorum() int { return r.cfg.N - r.cfg.F }

func (r *Replica) leader(v types.View) types.NodeID {
	return types.NodeID(uint64(v) % uint64(r.cfg.N))
}

// Start implements protocol.Protocol.
func (r *Replica) Start() {
	r.view = 1
	r.viewStart = r.ctx.Now()
	r.armPacemaker()
	if r.leader(1) == r.ctx.ID() {
		r.propose(1)
	}
}

func (r *Replica) armPacemaker() {
	r.ctx.SetTimer(r.timeout, protocol.TimerTag{Kind: protocol.TimerPacemaker, View: r.view})
}

// propose builds and broadcasts the block for view v extending highQC.
func (r *Replica) propose(v types.View) {
	var batch *types.Batch
	var refs []types.Digest
	if r.cfg.Payload != nil {
		batch, refs = r.cfg.Payload(v)
	} else {
		batch = r.ctx.NextBatch(0)
	}
	if batch == nil && refs == nil {
		// No payload available: retry shortly (the chain must keep moving
		// only when there is work).
		r.ctx.SetTimer(2*time.Millisecond, protocol.TimerTag{Kind: protocol.TimerPropose, View: v})
		return
	}
	parent := r.highQC.Block
	var batchID types.Digest
	if batch != nil {
		batchID = batch.ID
	}
	digest := types.ProposalDigest(0, v, batchID, r.highQC.View, parent)
	msg := &types.HSProposal{View: v, Block: digest, Parent: parent, Batch: batch, Justify: r.highQC, Refs: refs}
	switch r.cfg.Behavior.Mode {
	case protocol.AttackDark:
		// A2: withhold the proposal from the victim set.
		for i := 0; i < r.cfg.N; i++ {
			id := types.NodeID(i)
			if id == r.ctx.ID() || r.cfg.Behavior.Victims[id] {
				continue
			}
			r.ctx.Send(id, msg)
		}
	case protocol.AttackEquivocate:
		// A3: conflicting blocks to disjoint halves.
		altDigest := types.ProposalDigest(1, v, batchID, r.highQC.View, parent)
		alt := &types.HSProposal{View: v, Block: altDigest, Parent: parent, Batch: batch, Justify: r.highQC, Refs: refs}
		for i := 0; i < r.cfg.N; i++ {
			id := types.NodeID(i)
			if id == r.ctx.ID() {
				continue
			}
			if r.cfg.Behavior.Victims[id] {
				r.ctx.Send(id, alt)
			} else {
				r.ctx.Send(id, msg)
			}
		}
	default:
		r.ctx.Broadcast(msg)
	}
	r.onProposal(r.ctx.ID(), msg)
}

// HandleMessage implements protocol.Protocol.
func (r *Replica) HandleMessage(from types.NodeID, msg types.Message) {
	switch m := msg.(type) {
	case *types.HSProposal:
		r.onProposal(from, m)
	case *types.HSVote:
		r.onVote(from, m)
	case *types.HSNewView:
		r.onNewView(from, m)
	}
}

// IngressJob implements protocol.IngressVerifier, declaring the protocol's
// signature work up front so substrates verify it off the event loop: the
// n−f QC signatures carried by proposals and NewViews — the dominant cost
// of the protocol's critical path (§6.2) — fan out as one batch job, and
// each vote signature is checked before it reaches the leader's loop. The
// state machine below consumes only pre-verified messages.
//
// Every stateless guard the loop applies anyway (leadership, vote routing,
// structural QC quorum) runs here *before* any checks are declared, so a
// flood of junk messages is discarded by the loop for free instead of
// burning verification capacity.
func (r *Replica) IngressJob(from types.NodeID, msg types.Message) (protocol.VerifyJob, bool) {
	switch m := msg.(type) {
	case *types.HSProposal:
		if from != r.leader(m.View) {
			return protocol.VerifyJob{}, false // onProposal drops it unread
		}
		return r.qcJob(m.Justify)
	case *types.HSNewView:
		return r.qcJob(m.Justify)
	case *types.HSVote:
		// Votes must be signed by their sender: a replayed third-party
		// signature would verify but poison the leader's QC with a
		// duplicate signer, so it is dropped before costing a check.
		if r.leader(m.View+1) != r.ctx.ID() || m.Sig.Signer != from {
			return protocol.VerifyJob{}, false // onVote drops it unread
		}
		return protocol.VerifyJob{
			Checks: []crypto.Check{{Sig: m.Sig, Msg: m.Block[:]}},
			Quorum: 1,
		}, true
	}
	return protocol.VerifyJob{}, false
}

// qcJob declares the batch verification of one quorum certificate.
// Structurally short QCs (too few distinct signers) declare no checks —
// qcComplete rejects them on the loop at map-count cost.
func (r *Replica) qcJob(qc types.QC) (protocol.VerifyJob, bool) {
	if qc.Genesis || r.cfg.SkipQCVerify || crypto.DistinctSigners(qc.Sigs) < r.quorum() {
		return protocol.VerifyJob{}, false
	}
	checks := make([]crypto.Check, len(qc.Sigs))
	for i, sig := range qc.Sigs {
		checks[i] = crypto.Check{Sig: sig, Msg: qc.Block[:]}
	}
	return protocol.VerifyJob{Checks: checks, Quorum: r.quorum()}, true
}

// qcComplete is the structural remnant of QC validation on the event loop:
// the signatures themselves were verified by the ingress pipeline, so only
// the distinct-signer quorum count is (re)checked here — it also covers
// QCs assembled locally or injected by tests.
func qcComplete(qc types.QC, quorum int) bool {
	return qc.Genesis || crypto.DistinctSigners(qc.Sigs) >= quorum
}

var (
	_ protocol.Protocol        = (*Replica)(nil)
	_ protocol.IngressVerifier = (*Replica)(nil)
)

func (r *Replica) onProposal(from types.NodeID, m *types.HSProposal) {
	if m.View < r.view || from != r.leader(m.View) {
		return
	}
	// The justification's n−f signatures (§6.2) were verified by the
	// ingress pipeline; only the structural quorum check remains here.
	if !qcComplete(m.Justify, r.quorum()) {
		return
	}
	parent, ok := r.blocks[m.Parent]
	if !ok && !m.Justify.Genesis {
		return // unknown ancestry; pacemaker recovers
	}
	if !ok {
		parent = r.genesis
	}
	b := &block{
		digest: m.Block, view: m.View, parent: m.Parent,
		batch: m.Batch, refs: m.Refs, justify: m.Justify,
		height: parent.height + 1,
	}
	r.blocks[b.digest] = b
	r.updateHighQC(m.Justify)

	// Safety: vote when the block extends the locked branch or carries a
	// newer justification (chained-HotStuff safety/liveness rules).
	if m.Justify.View < r.lockView && !m.Justify.Genesis {
		return
	}
	// Two-chain lock and three-chain commit over consecutive views.
	r.advanceChain(b)

	// A4: subvert non-faulty leaders by withholding votes.
	if r.cfg.Behavior.Mode == protocol.AttackSubvert && !r.cfg.Behavior.Accomplices[from] {
		if m.View >= r.view {
			r.enterView(m.View + 1)
		}
		return
	}
	// Vote to the next leader and move on.
	sig := r.ctx.Crypto().Sign(m.Block[:])
	vote := &types.HSVote{View: m.View, Block: m.Block, Sig: sig}
	next := r.leader(m.View + 1)
	if next == r.ctx.ID() {
		r.onVote(r.ctx.ID(), vote)
	} else {
		r.ctx.Send(next, vote)
	}
	if m.View >= r.view {
		r.enterView(m.View + 1)
	}
}

// advanceChain applies the chained commit rule: lock on the one-chain head,
// commit the tail of a three-chain with consecutive views.
func (r *Replica) advanceChain(b *block) {
	b1, ok1 := r.blocks[b.justify.Block] // one-chain (lock candidate)
	if !ok1 {
		return
	}
	if b1.view > r.lockView {
		r.lockView = b1.view
	}
	b2, ok2 := r.blocks[b1.justify.Block]
	if !ok2 {
		return
	}
	if b.view == b1.view+1 && b1.view == b2.view+1 {
		r.commit(b2)
	}
}

func (r *Replica) commit(b *block) {
	if b.committed {
		return
	}
	var chain []*block
	for q := b; q != nil && !q.committed; {
		chain = append(chain, q)
		q = r.blocks[q.parent]
	}
	for i := len(chain) - 1; i >= 0; i-- {
		blk := chain[i]
		blk.committed = true
		r.Delivered++
		c := types.Commit{View: blk.view, Batch: blk.batch, Proposal: blk.digest}
		if r.cfg.OnCommit != nil {
			r.cfg.OnCommit(c, blk.refs)
		} else if blk.batch != nil {
			r.ctx.Deliver(c)
		}
	}
}

func (r *Replica) updateHighQC(qc types.QC) {
	if qc.Genesis {
		return
	}
	if r.highQC.Genesis || qc.View > r.highQC.View {
		r.highQC = qc
	}
}

func (r *Replica) onVote(from types.NodeID, m *types.HSVote) {
	if r.leader(m.View+1) != r.ctx.ID() || m.View+1 < r.view {
		return
	}
	set := r.votes[m.View]
	if set == nil {
		set = make(map[types.NodeID]types.Signature)
		r.votes[m.View] = set
	}
	if _, dup := set[from]; dup {
		return
	}
	// Vote signatures are verified by the ingress pipeline on arrival
	// (§6.2); the loop only tallies pre-verified votes, re-asserting the
	// sender binding so an assembled QC always has distinct signers.
	if m.Sig.Signer != from {
		return
	}
	set[from] = m.Sig
	if len(set) != r.quorum() {
		return
	}
	sigs := make([]types.Signature, 0, len(set))
	for _, s := range set {
		sigs = append(sigs, s)
	}
	qc := types.QC{View: m.View, Block: m.Block, Sigs: sigs}
	r.updateHighQC(qc)
	delete(r.votes, m.View)
	if r.view <= m.View+1 {
		r.enterView(m.View + 1)
		r.propose(m.View + 1)
	}
}

func (r *Replica) onNewView(from types.NodeID, m *types.HSNewView) {
	if qcComplete(m.Justify, r.quorum()) {
		r.updateHighQC(m.Justify)
	}
	// View synchronization: adopt higher views and echo our own NewView to
	// that view's leader, so drifting pacemakers converge on a quorum for
	// one common view (the liveness gap of black-box pacemakers the paper
	// discusses; this is the standard fix).
	if m.View > r.view {
		r.enterView(m.View)
		if next := r.leader(m.View); next != r.ctx.ID() && from != r.ctx.ID() {
			r.ctx.Send(next, &types.HSNewView{View: m.View, Justify: r.highQC})
		}
	}
	if r.leader(m.View) != r.ctx.ID() {
		return
	}
	set := r.nvQC[m.View]
	if set == nil {
		set = make(map[types.NodeID]bool)
		r.nvQC[m.View] = set
	}
	set[from] = true
	if len(set) == r.quorum() && r.view <= m.View {
		delete(r.nvQC, m.View)
		r.propose(m.View)
	}
}

func (r *Replica) enterView(v types.View) {
	if v <= r.view {
		return
	}
	// Fast progress halves the pacemaker timeout back toward the floor.
	if r.ctx.Now()-r.viewStart < r.timeout/2 && r.timeout > r.cfg.MinTimeout {
		r.timeout = max(r.timeout/2, r.cfg.MinTimeout)
	}
	r.view = v
	r.viewStart = r.ctx.Now()
	r.armPacemaker()
}

// HandleTimer implements protocol.Protocol.
func (r *Replica) HandleTimer(tag protocol.TimerTag) {
	switch tag.Kind {
	case protocol.TimerPropose:
		if tag.View == r.view && r.leader(r.view) == r.ctx.ID() {
			r.propose(r.view)
		}
	case protocol.TimerPacemaker:
		if tag.View != r.view {
			return
		}
		// Pacemaker timeout: advance the view and hand the next leader our
		// highQC.
		if r.lastTOView+1 == r.view {
			r.timeout = min(r.timeout*2, maxTimeout)
		}
		r.lastTOView = r.view
		v := r.view + 1
		r.view = v
		r.viewStart = r.ctx.Now()
		r.armPacemaker()
		// Broadcast so every replica observes the view advance (view
		// synchronization; see onNewView).
		nv := &types.HSNewView{View: v, Justify: r.highQC}
		r.ctx.Broadcast(nv)
		r.onNewView(r.ctx.ID(), nv)
	}
}

// View exposes the current pacemaker view (testing/probes).
func (r *Replica) View() types.View { return r.view }
