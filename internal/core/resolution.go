package core

import (
	"spotless/internal/types"
)

// This file is the per-view resolution state machine and the lock/commit
// choke point of one SpotLess instance — the re-derivation of §3.3's
// acceptance and locking rules against Lemma 3.4 and Theorem 3.5.
//
// # The safety argument, re-derived
//
// Call a proposal P *certified* when n−f distinct replicas claimed P in P's
// own view (proposal.claimQuorum: a local claim tally, n−f collected sync
// votes, or a verified embedded certificate — all three are the same
// quorum). Certification is the only evidence tier strong enough to carry
// quorum intersection: two certified proposals of one view would need
// 2(n−f) claims among n replicas, forcing ≥ n−2f ≥ f+1 double-claimers —
// impossible with ≤ f faults and one claim per view (Theorem 3.2's
// premise). The same intersection makes an n−f ∅-quorum and a certified
// proposal of one view mutually exclusive: resolving a view as ∅ requires
// exactly the evidence that no conflicting tip can hold an n−f claim
// quorum in that view.
//
// Commit (Definition 3.3, tightened): P commits when its view triple
// P ← C ← T occupies three consecutive views v, v+1, v+2 and ALL THREE
// links are certified. Lemma 3.4 then reads: any conflicting quorum must
// intersect one of the triple's three claim quorums in an honest replica.
//
// For that honest replica to actually block the conflict, its vote rules
// must remember the triple. Three rules close the loop (Theorem 3.5):
//
//   - ACV (consecutive-view vote rule): claiming a proposal whose parent
//     sits in the directly preceding view — the only shape a commit triple
//     can have — requires the parent to be certified locally. The steady
//     state pays nothing: a replica enters view v+1 through view v's claim
//     quorum, which is exactly the parent's certification.
//   - Lock rule (the single choke point, raiseLock): the lock rises only
//     to the PARENT of a certified proposal (plus checkpoint anchors,
//     which carry their own n−f certificate). An honest claimant of the
//     triple's tip T certified C (ACV), so it locked C's parent P before
//     its claim could complete any conflicting quorum. Locks stay bounded
//     by the globally highest certified view, so a primary extending the
//     highest certified proposal always satisfies A3 at every honest
//     replica — the liveness escape never closes.
//   - A3 (liveness rule, strengthened): abandoning the locked chain
//     requires a CERTIFIED parent in a view above the lock. The pre-refactor
//     rule accepted any conditionally prepared parent (f+1 CP endorsements
//     guarantee a single honest endorser, not a quorum), which let honest
//     replicas complete claim quorums for chains conflicting with a
//     committed triple — the fork-commit path of the PR 4 ROADMAP
//     discovery. Config.UnsafeLegacyResolution retains that rule as the
//     safety drill's negative control.
//
// With these rules, walk any conflicting proposal X certified at the
// minimal view u > v: u cannot fall inside the triple (intersection), so
// u > v+2 and X's quorum intersects T's in an honest r with lock ≥ P.
// A2 would place the lock inside X's ancestry (making X extend P);
// A3 would need a certified parent above lock.view and below u, which
// minimality forces onto P's branch. Either way X extends P — no
// conflicting certification, hence no conflicting commit, exists.

// Per-view resolution phases (the explicit state machine the view
// bookkeeping advances through; phases only move forward).
type resPhase uint8

const (
	// resOpen: no known proposal recorded for the view yet.
	resOpen resPhase = iota
	// resProposed: a known, well-formed proposal was recorded (S1–S2).
	resProposed
	// resClaimed: this replica issued its one claim for the view — for a
	// proposal digest or for ∅.
	resClaimed
	// resResolvedBatch: some proposal of the view is certified (n−f claim
	// quorum in the view). By quorum intersection this excludes resResolvedEmpty.
	resResolvedBatch
	// resResolvedEmpty: n−f distinct ∅-claims — the quorum-intersection
	// evidence that no proposal of this view can be certified.
	resResolvedEmpty
	// resCommitted: the view's certified proposal committed (three
	// consecutive certified views on its chain).
	resCommitted
)

// phaseRank orders phases for the monotone advance; the two resolved
// outcomes share a rank because they are mutually exclusive, not ordered.
func phaseRank(p resPhase) int {
	switch p {
	case resResolvedBatch, resResolvedEmpty:
		return 3
	case resCommitted:
		return 4
	default:
		return int(p)
	}
}

// advancePhase moves a view's resolution phase forward; backward moves are
// ignored (late messages re-derive already-passed milestones). A view that
// resolved ∅ and later shows a certified proposal (or vice versa) proves
// more than f faults — logged, never adopted silently.
func (in *Instance) advancePhase(v types.View, next resPhase) {
	s := in.vs(v)
	cur := s.phase
	if phaseRank(next) <= phaseRank(cur) {
		return
	}
	if (cur == resResolvedEmpty && next == resResolvedBatch) ||
		(cur == resResolvedBatch && next == resResolvedEmpty) {
		in.r.ctx.Logf("spotless: instance %d view %d resolved both ∅ and a certified proposal — more than f faulty replicas", in.id, v)
		return
	}
	if next == resCommitted && cur == resResolvedEmpty {
		in.r.ctx.Logf("spotless: instance %d view %d committed after resolving ∅ — more than f faulty replicas", in.id, v)
	}
	s.phase = next
}

// raiseLock is the single point where Plock rises (§3.3, re-derived): to
// the parent of a proposal that just certified, or to a stable-checkpoint
// anchor (installAnchor/gcToAnchor — the checkpoint certificate stands in
// for the per-view quorums). Locks are monotone in view.
func (in *Instance) raiseLock(p *proposal) {
	if p == nil || p.view <= in.lock.view {
		return
	}
	in.lock = p
}

// certify records that p holds an n−f claim quorum in its own view — the
// certification event every safety-relevant transition hangs off:
//
//   - the view resolves to p (resResolvedBatch),
//   - the lock rises to p's parent (deferred to linkKnown for placeholders),
//   - the commit rule re-fires for every certified tip whose triple p may
//     have completed,
//   - a buffered proposal waiting on p's certification (ACV / A3) retries.
//
// Under UnsafeLegacyResolution the lock instead rises through the
// conditionally-committed path in deriveStates, as the seed did.
func (in *Instance) certify(p *proposal) {
	if p.claimQuorum || p == in.genesis {
		return
	}
	p.claimQuorum = true
	in.advancePhase(p.view, resResolvedBatch)
	if !in.r.cfg.UnsafeLegacyResolution {
		if p.parent != nil {
			in.raiseLock(p.parent)
		}
		in.certTips = append(in.certTips, p)
		in.maybeCommitChains()
	} else {
		in.maybeCommitChain(p)
	}
	in.retryPending()
}

// resolveEmpty records the ∅-resolution of view v: n−f distinct ∅-claims.
// This is the only place a view is decided batch-less, and it demands the
// full quorum — the intersection evidence that no conflicting tip can hold
// an n−f claim quorum in v (see the file comment). Callers advance the view
// themselves; a view that merely times out (tA) advances UNRESOLVED and may
// still resolve either way through late Syncs.
func (in *Instance) resolveEmpty(v types.View) {
	in.advancePhase(v, resResolvedEmpty)
}

// maybeCommitChains re-evaluates the commit rule for every certified,
// not-yet-committed tip. Certifications complete in any order (a late Sync
// can certify the triple's middle or base after its tip), so each
// certification event re-checks all live tips; the slice stays small — one
// entry per certified view awaiting its triple.
//
// A commit re-enters the instance: on a single-loop replica its delivery
// can stabilize a checkpoint whose GC (gcToAnchor) compacts certTips, or
// certify further tips. The walk therefore runs over a detached slice, so
// re-entrant edits land in a fresh one that is merged back afterwards;
// compacting the shared array under the walk used to hand it nil tips.
func (in *Instance) maybeCommitChains() {
	tips := in.certTips
	in.certTips = nil
	keep := tips[:0]
	for _, p := range tips {
		in.maybeCommitChain(p)
		if !p.committed && p.view >= in.gcFloor {
			keep = append(keep, p)
		}
	}
	// Zero the dropped tail so committed proposals are collectable.
	for i := len(keep); i < len(tips); i++ {
		tips[i] = nil
	}
	in.certTips = append(keep, in.certTips...)
}

// ResolutionPhase reports the resolution phase of a view (testing).
func (in *Instance) ResolutionPhase(v types.View) uint8 {
	if s, ok := in.views[v]; ok {
		return uint8(s.phase)
	}
	return uint8(resOpen)
}
