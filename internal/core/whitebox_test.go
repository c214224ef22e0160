package core

import (
	"testing"
	"time"

	"spotless/internal/crypto"
	"spotless/internal/protocol"
	"spotless/internal/types"
)

// fakeContext drives a single replica deterministically for white-box tests
// of the instance state machine.
type fakeContext struct {
	id      types.NodeID
	n, f    int
	now     time.Duration
	prov    crypto.Provider
	sent    []types.Message
	commits []types.Commit
	timers  []protocol.TimerTag
	verifs  []fakeVerify // queued VerifyAsync completions (delivered by flushVerify)
}

type fakeVerify struct {
	tag protocol.TimerTag
	ok  bool
}

func newFakeContext(id types.NodeID, n int) *fakeContext {
	fc := &fakeContext{id: id, n: n, f: (n - 1) / 3}
	fc.prov = crypto.NewSimProvider(id, crypto.CostModel{}, nil)
	return fc
}

func (c *fakeContext) ID() types.NodeID   { return c.id }
func (c *fakeContext) N() int             { return c.n }
func (c *fakeContext) F() int             { return c.f }
func (c *fakeContext) Now() time.Duration { return c.now }
func (c *fakeContext) Send(to types.NodeID, m types.Message) {
	c.sent = append(c.sent, m)
}
func (c *fakeContext) Broadcast(m types.Message) { c.sent = append(c.sent, m) }
func (c *fakeContext) SetTimer(d time.Duration, tag protocol.TimerTag) {
	c.timers = append(c.timers, tag)
}
func (c *fakeContext) Crypto() crypto.Provider      { return c.prov }
func (c *fakeContext) Deliver(cm types.Commit)      { c.commits = append(c.commits, cm) }
func (c *fakeContext) NextBatch(int32) *types.Batch { return nil }
func (c *fakeContext) Logf(string, ...any)          {}

// VerifyAsync computes the verdict immediately but queues the completion,
// honouring the non-reentrancy of the contract; tests deliver it with
// flushVerify.
func (c *fakeContext) VerifyAsync(job protocol.VerifyJob) {
	ok := crypto.VerifyChecks(c.prov, job.Checks, job.Quorum)
	c.verifs = append(c.verifs, fakeVerify{tag: job.Tag, ok: ok})
}

// flushVerify delivers queued verification completions to the replica, as
// the substrates do after the issuing handler returned.
func flushVerify(r *Replica, ctx *fakeContext) {
	for len(ctx.verifs) > 0 {
		v := ctx.verifs[0]
		ctx.verifs = ctx.verifs[1:]
		r.HandleVerified(v.tag, v.ok)
	}
}

// provFor returns a signing provider for another (simulated) replica.
func provFor(id types.NodeID) crypto.Provider {
	return crypto.NewSimProvider(id, crypto.CostModel{}, nil)
}

// buildProposal constructs a signed proposal extending the given parent.
func buildProposal(inst int32, v types.View, parent types.Justification, primary types.NodeID) *types.Propose {
	batch := &types.Batch{ID: types.ComputeBatchID(nil), NoOp: true}
	p := &types.Propose{Instance: inst, View: v, Batch: batch, Parent: parent}
	d := p.Digest()
	p.Sig = provFor(primary).Sign(d[:])
	return p
}

// syncFor constructs a signed Sync claiming the given proposal.
func syncFor(inst int32, from types.NodeID, v types.View, d types.Digest, cp []types.CPEntry) *types.Sync {
	claim := types.Claim{View: v, Digest: d}
	return &types.Sync{Instance: inst, View: v, Claim: claim, CP: cp,
		Sig: provFor(from).Sign(types.ClaimBytes(inst, claim))}
}

// harness: replica 0 of n=4 with one instance; primary of view v is
// replica (v mod 4).
func newTestReplica() (*Replica, *fakeContext) {
	ctx := newFakeContext(0, 4)
	cfg := DefaultConfig(4, 1)
	r := New(ctx, cfg)
	r.Start()
	return r, ctx
}

// driveView makes replica 0 observe a full successful view v for the given
// proposal: the proposal plus n−f matching Syncs from other replicas.
func driveView(r *Replica, p *types.Propose) {
	r.HandleMessage(p.Sig.Signer, p)
	d := p.Digest()
	for _, from := range []types.NodeID{1, 2, 3} {
		r.HandleMessage(from, syncFor(0, from, p.View, d, nil))
	}
}

// TestChainedCommitThreeConsecutiveViews: a proposal commits exactly when
// its two successors occupy the next two consecutive views (u = w+1 = v+2,
// Definition 3.3) — the heart of Example 3.6.
func TestChainedCommitThreeConsecutiveViews(t *testing.T) {
	r, ctx := newTestReplica()
	in := r.Instance(0)

	p1 := buildProposal(0, 1, types.Justification{Kind: types.JustGenesis}, 1)
	driveView(r, p1)
	if !in.props[p1.Digest()].condPrepared {
		t.Fatal("P1 not conditionally prepared after n−f matching claims")
	}
	p2 := buildProposal(0, 2, types.Justification{Kind: types.JustClaim, ParentView: 1, ParentDigest: p1.Digest()}, 2)
	driveView(r, p2)
	if !in.props[p1.Digest()].condCommitted {
		t.Fatal("P1 not conditionally committed after child prepared")
	}
	if in.props[p1.Digest()].committed {
		t.Fatal("P1 committed after only two views — Example 3.6 violation")
	}
	p3 := buildProposal(0, 3, types.Justification{Kind: types.JustClaim, ParentView: 2, ParentDigest: p2.Digest()}, 3)
	driveView(r, p3)
	if !in.props[p1.Digest()].committed {
		t.Fatal("P1 not committed after three consecutive views")
	}
	if len(ctx.commits) != 0 {
		// p1..p3 are no-ops; they advance frontiers without delivery.
		t.Fatalf("no-op proposals must not be delivered, got %d", len(ctx.commits))
	}
}

// TestCommitSkipsNonConsecutiveViews: a gap between views (failed view)
// defers the commit until a later consecutive triple forms, which then
// commits the whole ancestor chain.
func TestCommitSkipsNonConsecutiveViews(t *testing.T) {
	r, _ := newTestReplica()
	in := r.Instance(0)

	p1 := buildProposal(0, 1, types.Justification{Kind: types.JustGenesis}, 1)
	driveView(r, p1)
	// View 2 fails: n−f empty claims advance the view without a proposal.
	for _, from := range []types.NodeID{1, 2, 3} {
		claim := types.Claim{View: 2, Empty: true}
		r.HandleMessage(from, &types.Sync{Instance: 0, View: 2, Claim: claim,
			Sig: provFor(from).Sign(types.ClaimBytes(0, claim))})
	}
	if got := in.CurrentView(); got != 3 {
		t.Fatalf("view after failed view 2: got %d want 3", got)
	}
	// Views 3, 4, 5 succeed on a chain extending P1.
	p3 := buildProposal(0, 3, types.Justification{Kind: types.JustClaim, ParentView: 1, ParentDigest: p1.Digest()}, 3)
	driveView(r, p3)
	p4 := buildProposal(0, 4, types.Justification{Kind: types.JustClaim, ParentView: 3, ParentDigest: p3.Digest()}, 0)
	// Replica 0 is the primary of view 4; feed only the backups' syncs.
	d4 := p4.Digest()
	r.HandleMessage(0, p4)
	for _, from := range []types.NodeID{1, 2, 3} {
		r.HandleMessage(from, syncFor(0, from, 4, d4, nil))
	}
	if in.props[p1.Digest()].committed {
		t.Fatal("P1 must not commit: views 1,3,4 are not consecutive")
	}
	p5 := buildProposal(0, 5, types.Justification{Kind: types.JustClaim, ParentView: 4, ParentDigest: p4.Digest()}, 1)
	driveView(r, p5)
	if !in.props[p3.Digest()].committed || !in.props[p1.Digest()].committed {
		t.Fatal("the 3,4,5 triple must commit P3 and its ancestor P1")
	}
}

// TestSafetyRuleRejectsForkBelowLock: once locked, a replica refuses
// proposals extending a branch that bypasses the lock (rule A2/A3).
func TestSafetyRuleRejectsForkBelowLock(t *testing.T) {
	r, ctx := newTestReplica()
	in := r.Instance(0)

	p1 := buildProposal(0, 1, types.Justification{Kind: types.JustGenesis}, 1)
	driveView(r, p1)
	p2 := buildProposal(0, 2, types.Justification{Kind: types.JustClaim, ParentView: 1, ParentDigest: p1.Digest()}, 2)
	driveView(r, p2)
	p3 := buildProposal(0, 3, types.Justification{Kind: types.JustClaim, ParentView: 2, ParentDigest: p2.Digest()}, 3)
	driveView(r, p3)
	if got := in.LockView(); got != 2 {
		t.Fatalf("lock view: got %d want 2", got)
	}
	// A forged proposal at the current view extending genesis (bypassing
	// the lock) must not be accepted: no Sync may be emitted for it.
	sentBefore := len(ctx.sent)
	forged := buildProposal(0, 4, types.Justification{Kind: types.JustGenesis}, 0)
	r.HandleMessage(0, forged)
	for _, m := range ctx.sent[sentBefore:] {
		if s, ok := m.(*types.Sync); ok && !s.Claim.Empty && s.Claim.Digest == forged.Digest() {
			t.Fatal("replica voted for a proposal violating the safety rule A2")
		}
	}
}

// TestCPSetCarriesCondPrepared: Sync messages list conditionally prepared
// proposals with view ≥ lock view (§3.3).
func TestCPSetCarriesCondPrepared(t *testing.T) {
	r, ctx := newTestReplica()
	p1 := buildProposal(0, 1, types.Justification{Kind: types.JustGenesis}, 1)
	driveView(r, p1)
	p2 := buildProposal(0, 2, types.Justification{Kind: types.JustClaim, ParentView: 1, ParentDigest: p1.Digest()}, 2)
	// Deliver only the proposal: replica 0 accepts and broadcasts its Sync.
	r.HandleMessage(2, p2)
	var last *types.Sync
	for _, m := range ctx.sent {
		if s, ok := m.(*types.Sync); ok && s.View == 2 {
			last = s
		}
	}
	if last == nil {
		t.Fatal("no Sync broadcast for view 2")
	}
	found := false
	for _, e := range last.CP {
		if e.Digest == p1.Digest() && e.View == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("CP set %+v misses conditionally prepared P1", last.CP)
	}
}

// TestWeakQuorumAsksThenClaims: f+1 matching claims for an unknown proposal
// make a replica fetch the payload via Ask — but never echo a claim it
// cannot check against the acceptance rules. The seed echoed on the f+1
// backing alone, which let a locked replica complete a claim quorum for a
// chain conflicting with its own lock (the fork-commit path closed by the
// Lemma 3.4 re-derivation; see resolution.go). Once the payload arrives,
// the claim follows through the ordinary acceptance path, and liveness is
// restored one Ask round-trip later.
func TestWeakQuorumAsksThenClaims(t *testing.T) {
	r, ctx := newTestReplica()
	p1 := buildProposal(0, 1, types.Justification{Kind: types.JustGenesis}, 1)
	d := p1.Digest()
	// Replica 0 never receives P1 — only f+1 = 2 matching claims.
	r.HandleMessage(1, syncFor(0, 1, 1, d, nil))
	r.HandleMessage(2, syncFor(0, 2, 1, d, nil))
	scan := func() (echoed, asked bool) {
		for _, m := range ctx.sent {
			switch s := m.(type) {
			case *types.Sync:
				if s.View == 1 && !s.Claim.Empty && s.Claim.Digest == d {
					echoed = true
				}
			case *types.Ask:
				if s.Claim.Digest == d {
					asked = true
				}
			}
		}
		return
	}
	echoed, asked := scan()
	if echoed {
		t.Error("replica echoed a claim for a proposal it cannot check")
	}
	if !asked {
		t.Error("replica did not Ask for the unknown proposal")
	}
	// The Ask is answered: the payload arrives and the replica claims it
	// through tryAccept (rules A1/ACV/A2 all hold against genesis).
	r.HandleMessage(1, p1)
	if echoed, _ = scan(); !echoed {
		t.Error("replica did not claim the proposal after its payload arrived")
	}
	// A third claim completes n−f = 3: the proposal certifies, becomes
	// conditionally prepared, and the view advances.
	r.HandleMessage(3, syncFor(0, 3, 1, d, nil))
	if !r.Instance(0).props[d].condPrepared {
		t.Error("claim-backed proposal not conditionally prepared at n−f")
	}
	if got := r.Instance(0).CurrentView(); got != 2 {
		t.Errorf("view after quorum: got %d want 2", got)
	}
}

// TestAskServesRecordedProposal: replicas answer Ask with the recorded
// Propose message (§3.3).
func TestAskServesRecordedProposal(t *testing.T) {
	r, ctx := newTestReplica()
	p1 := buildProposal(0, 1, types.Justification{Kind: types.JustGenesis}, 1)
	r.HandleMessage(1, p1)
	sentBefore := len(ctx.sent)
	r.HandleMessage(3, &types.Ask{Instance: 0, View: 1, Claim: types.Claim{View: 1, Digest: p1.Digest()}})
	served := false
	for _, m := range ctx.sent[sentBefore:] {
		if pp, ok := m.(*types.Propose); ok && pp.Digest() == p1.Digest() {
			served = true
		}
	}
	if !served {
		t.Fatal("recorded proposal not forwarded in response to Ask")
	}
}

// TestCatchUpSkipsToHigherView: f+1 Syncs of a much higher view make a
// lagging replica jump, broadcasting Υ-flagged empty syncs for the gap
// (Figure 4, lines 12–15).
func TestCatchUpSkipsToHigherView(t *testing.T) {
	r, ctx := newTestReplica()
	for _, from := range []types.NodeID{1, 2} {
		claim := types.Claim{View: 9, Empty: true}
		r.HandleMessage(from, &types.Sync{Instance: 0, View: 9, Claim: claim,
			Sig: provFor(from).Sign(types.ClaimBytes(0, claim))})
	}
	if got := r.Instance(0).CurrentView(); got != 9 {
		t.Fatalf("lagging replica should jump to view 9, got %d", got)
	}
	retrans := 0
	for _, m := range ctx.sent {
		if s, ok := m.(*types.Sync); ok && s.Retransmit {
			retrans++
		}
	}
	if retrans == 0 {
		t.Fatal("catch-up must broadcast Υ-flagged syncs for skipped views")
	}
}

// TestCertificateConditionallyPrepares: a valid embedded certificate
// conditionally prepares an unprepared parent on the spot (§3.3), while a
// bogus certificate does not.
func TestCertificateConditionallyPrepares(t *testing.T) {
	r, ctx := newTestReplica()
	in := r.Instance(0)

	// Build P1 and a genuine certificate from 3 signed claims — but never
	// show P1's view-1 quorum to replica 0 directly.
	p1 := buildProposal(0, 1, types.Justification{Kind: types.JustGenesis}, 1)
	r.HandleMessage(1, p1) // recorded, voted; no quorum follows
	d1 := p1.Digest()
	claim := types.Claim{View: 1, Digest: d1}
	var cert []types.Signature
	for _, from := range []types.NodeID{1, 2, 3} {
		cert = append(cert, provFor(from).Sign(types.ClaimBytes(0, claim)))
	}
	// Jump replica 0 to view 2 via empty claims is impossible without a
	// quorum; instead feed view-2 proposal carrying the certificate after
	// advancing via n−f view-1 empty claims from others... Simpler: the
	// proposal arrives for the current view of a replica that timed out.
	// Here replica 0 is still in view 1; drive it to view 2 with n−f
	// matching claims for P1 unseen by it: use empty claims.
	for _, from := range []types.NodeID{1, 2, 3} {
		ec := types.Claim{View: 1, Empty: true}
		r.HandleMessage(from, &types.Sync{Instance: 0, View: 1, Claim: ec,
			Sig: provFor(from).Sign(types.ClaimBytes(0, ec))})
	}
	if in.CurrentView() != 2 {
		t.Fatalf("setup: want view 2, got %d", in.CurrentView())
	}
	if in.props[d1].condPrepared {
		t.Fatal("setup: P1 must not be conditionally prepared yet")
	}
	p2 := buildProposal(0, 2, types.Justification{Kind: types.JustCert, ParentView: 1, ParentDigest: d1, Cert: cert}, 2)
	r.HandleMessage(2, p2)
	// Certificate verification is asynchronous: the proposal is buffered
	// until the fanned-out batch job completes.
	if in.props[d1].condPrepared {
		t.Fatal("parent conditionally prepared before the cert job completed")
	}
	flushVerify(r, ctx)
	if !in.props[d1].condPrepared {
		t.Fatal("valid certificate must conditionally prepare the parent (S4)")
	}
	voted := false
	for _, m := range ctx.sent {
		if s, ok := m.(*types.Sync); ok && s.View == 2 && !s.Claim.Empty && s.Claim.Digest == p2.Digest() {
			voted = true
		}
	}
	if !voted {
		t.Fatal("replica must vote for a certificate-justified proposal")
	}
}

// TestBogusCertificateRejected: certificates with forged or duplicate
// signatures do not conditionally prepare the parent.
func TestBogusCertificateRejected(t *testing.T) {
	r, ctx := newTestReplica()
	in := r.Instance(0)
	p1 := buildProposal(0, 1, types.Justification{Kind: types.JustGenesis}, 1)
	d1 := p1.Digest()
	// Advance replica 0 past view 1 with empty claims.
	for _, from := range []types.NodeID{1, 2, 3} {
		ec := types.Claim{View: 1, Empty: true}
		r.HandleMessage(from, &types.Sync{Instance: 0, View: 1, Claim: ec,
			Sig: provFor(from).Sign(types.ClaimBytes(0, ec))})
	}
	// Certificate of three copies of ONE valid signature (duplicates).
	one := provFor(1).Sign(types.ClaimBytes(0, types.Claim{View: 1, Digest: d1}))
	cert := []types.Signature{one, one, one}
	p2 := buildProposal(0, 2, types.Justification{Kind: types.JustCert, ParentView: 1, ParentDigest: d1, Cert: cert}, 2)
	r.HandleMessage(2, p2)
	flushVerify(r, ctx)
	if p, ok := in.props[d1]; ok && p.condPrepared {
		t.Fatal("duplicate-signature certificate accepted")
	}
}

// TestOneClaimPerView: a replica never emits two different claims for one
// view, even when a second acceptable proposal arrives (Theorem 3.2's
// premise).
func TestOneClaimPerView(t *testing.T) {
	r, ctx := newTestReplica()
	p1 := buildProposal(0, 1, types.Justification{Kind: types.JustGenesis}, 1)
	r.HandleMessage(1, p1)
	alt := buildProposal(0, 1, types.Justification{Kind: types.JustGenesis}, 1)
	alt.Batch = &types.Batch{ID: types.Digest{42}}
	d := alt.Digest()
	alt.Sig = provFor(1).Sign(d[:])
	r.HandleMessage(1, alt)
	claims := 0
	for _, m := range ctx.sent {
		if s, ok := m.(*types.Sync); ok && s.View == 1 {
			claims++
		}
	}
	if claims != 1 {
		t.Fatalf("replica emitted %d claims for view 1, want exactly 1", claims)
	}
}

// TestAdaptiveTimeoutEpsilonAndHalving: consecutive timeouts add ε;
// fast arrivals halve, both clamped (§3.5).
func TestAdaptiveTimeoutEpsilonAndHalving(t *testing.T) {
	ctx := newFakeContext(0, 4)
	cfg := DefaultConfig(4, 1)
	cfg.InitialRecordingTimeout = 40 * time.Millisecond
	cfg.MinTimeout = 10 * time.Millisecond
	r := New(ctx, cfg)
	r.Start()
	in := r.Instance(0)
	base, _ := in.pm.Timeouts()
	// Two consecutive recording timeouts in consecutive views.
	r.HandleTimer(protocol.TimerTag{Kind: protocol.TimerRecording, Instance: 0, View: 1})
	for _, from := range []types.NodeID{1, 2, 3} {
		ec := types.Claim{View: 1, Empty: true}
		r.HandleMessage(from, &types.Sync{Instance: 0, View: 1, Claim: ec,
			Sig: provFor(from).Sign(types.ClaimBytes(0, ec))})
	}
	r.HandleTimer(protocol.TimerTag{Kind: protocol.TimerRecording, Instance: 0, View: 2})
	if tR, _ := in.pm.Timeouts(); tR != base+epsilon {
		t.Fatalf("consecutive timeout must add ε: got %v want %v", tR, base+epsilon)
	}
	// A proposal arriving instantly (well under tR/2) halves the timeout.
	for _, from := range []types.NodeID{1, 2, 3} {
		ec := types.Claim{View: 2, Empty: true}
		r.HandleMessage(from, &types.Sync{Instance: 0, View: 2, Claim: ec,
			Sig: provFor(from).Sign(types.ClaimBytes(0, ec))})
	}
	cur, _ := in.pm.Timeouts()
	p3 := buildProposal(0, 3, types.Justification{Kind: types.JustGenesis}, 3)
	r.HandleMessage(3, p3)
	if tR, _ := in.pm.Timeouts(); tR != cur/2 {
		t.Fatalf("fast arrival must halve tR: got %v want %v", tR, cur/2)
	}
}

// TestOwnTimerClaimCompletingEmptyQuorumStillClaimsNextView: when this
// replica's own recording-timer claim(∅) is the (n−f)-th empty claim, the
// claim resolves view v and enters v+1 before the timer handler returns.
// View v+1 must stay in stRecording, so its own recording timer claims ∅
// there too; a replica parked in stSyncing without a Sync never claims
// again, and two such replicas wedge the instance.
func TestOwnTimerClaimCompletingEmptyQuorumStillClaimsNextView(t *testing.T) {
	r, ctx := newTestReplica()
	in := r.Instance(0)
	for _, from := range []types.NodeID{1, 2} { // n−f−1 empty claims for view 1
		ec := types.Claim{View: 1, Empty: true}
		r.HandleMessage(from, &types.Sync{Instance: 0, View: 1, Claim: ec,
			Sig: provFor(from).Sign(types.ClaimBytes(0, ec))})
	}
	r.HandleTimer(protocol.TimerTag{Kind: protocol.TimerRecording, Instance: 0, View: 1})
	if got := in.CurrentView(); got != 2 {
		t.Fatalf("own claim(∅) completing the quorum: view %d, want 2", got)
	}
	if in.state != stRecording {
		t.Fatalf("entered view 2 in state %d, want stRecording", in.state)
	}
	ctx.sent = nil
	r.HandleTimer(protocol.TimerTag{Kind: protocol.TimerRecording, Instance: 0, View: 2})
	claimed := false
	for _, m := range ctx.sent {
		if s, ok := m.(*types.Sync); ok && s.View == 2 && s.Claim.Empty {
			claimed = true
		}
	}
	if !claimed || in.vs(2).ownSync == nil {
		t.Fatal("view-2 recording timer did not claim ∅: the replica is wedged in view 2")
	}
}

// TestResolutionPhasesAndLockChokePoint: the per-view resolution state
// machine advances proposed → claimed → resolved{batch|∅} → committed, and
// the lock rises exactly at the certification choke point (raiseLock): to
// the parent of a certified proposal, never on a bare claim.
func TestResolutionPhasesAndLockChokePoint(t *testing.T) {
	r, _ := newTestReplica()
	in := r.Instance(0)

	p1 := buildProposal(0, 1, types.Justification{Kind: types.JustGenesis}, 1)
	r.HandleMessage(1, p1)
	// Proposal recorded and claimed by us; no quorum yet.
	if got := resPhase(in.ResolutionPhase(1)); got != resClaimed {
		t.Fatalf("view 1 phase after own claim: got %d want resClaimed", got)
	}
	if got := in.LockView(); got != 0 {
		t.Fatalf("lock must not rise on a bare claim, got view %d", got)
	}
	for _, from := range []types.NodeID{2, 3} {
		r.HandleMessage(from, syncFor(0, from, 1, p1.Digest(), nil))
	}
	// Certified: the view resolved to P1; the lock rises to P1's parent
	// (genesis — no visible change yet).
	if got := resPhase(in.ResolutionPhase(1)); got != resResolvedBatch {
		t.Fatalf("view 1 phase after the claim quorum: got %d want resResolvedBatch", got)
	}
	p2 := buildProposal(0, 2, types.Justification{Kind: types.JustClaim, ParentView: 1, ParentDigest: p1.Digest()}, 2)
	r.HandleMessage(2, p2)
	if got := in.LockView(); got != 0 {
		t.Fatalf("lock rose on an uncertified view-2 claim, got view %d", got)
	}
	driveView(r, p2) // completes the view-2 quorum (dup-proof)
	if got := in.LockView(); got != 1 {
		t.Fatalf("lock after view 2 certified: got view %d want 1 (parent of the certified proposal)", got)
	}
	// A failed view resolves ∅ only on the full n−f ∅-quorum.
	for _, from := range []types.NodeID{1, 2} {
		ec := types.Claim{View: 3, Empty: true}
		r.HandleMessage(from, &types.Sync{Instance: 0, View: 3, Claim: ec,
			Sig: provFor(from).Sign(types.ClaimBytes(0, ec))})
	}
	if got := resPhase(in.ResolutionPhase(3)); got == resResolvedEmpty {
		t.Fatal("view 3 resolved ∅ on only f+1 ∅-claims")
	}
	ec := types.Claim{View: 3, Empty: true}
	r.HandleMessage(3, &types.Sync{Instance: 0, View: 3, Claim: ec,
		Sig: provFor(3).Sign(types.ClaimBytes(0, ec))})
	if got := resPhase(in.ResolutionPhase(3)); got != resResolvedEmpty {
		t.Fatalf("view 3 phase after the ∅-quorum: got %d want resResolvedEmpty", got)
	}
	// Views 4, 5, 6 certify a consecutive triple: view 4 commits.
	p4 := buildProposal(0, 4, types.Justification{Kind: types.JustClaim, ParentView: 2, ParentDigest: p2.Digest()}, 0)
	r.HandleMessage(0, p4)
	for _, from := range []types.NodeID{1, 2, 3} {
		r.HandleMessage(from, syncFor(0, from, 4, p4.Digest(), nil))
	}
	p5 := buildProposal(0, 5, types.Justification{Kind: types.JustClaim, ParentView: 4, ParentDigest: p4.Digest()}, 1)
	driveView(r, p5)
	p6 := buildProposal(0, 6, types.Justification{Kind: types.JustClaim, ParentView: 5, ParentDigest: p5.Digest()}, 2)
	driveView(r, p6)
	if got := resPhase(in.ResolutionPhase(4)); got != resCommitted {
		t.Fatalf("view 4 phase after its triple: got %d want resCommitted", got)
	}
	if !in.props[p4.Digest()].committed {
		t.Fatal("the 4,5,6 triple must commit P4")
	}
}

// TestPrimaryRotation: id(P_{i,v}) = (i+v) mod n (Figure 5).
func TestPrimaryRotation(t *testing.T) {
	for _, tc := range []struct {
		inst int32
		v    types.View
		n    int
		want types.NodeID
	}{
		{0, 0, 4, 0}, {1, 0, 4, 1}, {3, 1, 4, 0}, {0, 2, 4, 2}, {2, 2, 4, 0},
		{5, 7, 16, 12}, {10, 100, 128, 110},
	} {
		if got := PrimaryOf(tc.inst, tc.v, tc.n); got != tc.want {
			t.Errorf("PrimaryOf(%d,%d,%d) = %d, want %d", tc.inst, tc.v, tc.n, got, tc.want)
		}
	}
}
