package core

import (
	"testing"
	"time"

	"spotless/internal/protocol"
	"spotless/internal/types"
)

// Pacemaker contract suite: every bake-off arm must uphold the invariants
// the resolution machine (and the PR 3/PR 5 guards) depend on, so a new
// synchronizer cannot silently violate them:
//
//  1. a timeout always re-arms after firing (the view machine never goes
//     timerless),
//  2. the MinTimeout floor and maxTimeout ceiling hold under any event
//     sequence,
//  3. paced proposals never fire after the replica's own claim(∅),
//  4. view entry is monotone.
//
// 1–2 are policy-level (driven against the Pacemaker interface directly);
// 3–4 are instance-level (driven through the state machine with each arm
// installed), since the guards live in the instance.

func forEachArm(t *testing.T, cfg Config, fn func(t *testing.T, arm string, pm Pacemaker)) {
	for _, arm := range PacemakerArms {
		arm := arm
		t.Run(arm, func(t *testing.T) {
			factory, err := PacemakerByName(arm)
			if err != nil {
				t.Fatal(err)
			}
			fn(t, arm, factory(0, cfg))
		})
	}
}

// TestPacemakerContractRearmAndBounds: after any expiry/progress sequence,
// the durations an arm hands back stay inside [MinTimeout, maxTimeout] —
// positive, so the instance always re-arms a live timer.
func TestPacemakerContractRearmAndBounds(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	cfg.InitialRecordingTimeout = 40 * time.Millisecond
	cfg.InitialCertifyTimeout = 40 * time.Millisecond
	cfg.MinTimeout = 10 * time.Millisecond
	forEachArm(t, cfg, func(t *testing.T, arm string, pm Pacemaker) {
		check := func(v types.View, phase string) {
			tR := pm.EnterView(v)
			tA := pm.EnterCertify(v)
			for name, d := range map[string]time.Duration{"tR": tR, "tA": tA} {
				if d < cfg.MinTimeout || d > maxTimeout {
					t.Fatalf("%s after %s at view %d: %v outside [%v, %v]", name, phase, v, d, cfg.MinTimeout, maxTimeout)
				}
			}
		}
		v := types.View(1)
		// A long run of consecutive expiries: growth must cap at maxTimeout
		// and the re-arm value must stay positive throughout. Relay grows by
		// ε per expiry, so reaching the cap takes maxTimeout/ε of them.
		for i := 0; i < int(maxTimeout/epsilon)+100; i++ {
			pm.RecordingExpired(v)
			pm.CertifyExpired(v)
			check(v+1, "expiry")
			v++
		}
		// A long run of instant progress: shrink/reset must floor at
		// MinTimeout.
		for i := 0; i < 100; i++ {
			pm.ProposalAccepted(v, 0)
			pm.ViewCertified(v, 0)
			check(v+1, "progress")
			v++
		}
		// Alternating failure and progress keeps both inside the clamp.
		for i := 0; i < 100; i++ {
			if i%2 == 0 {
				pm.RecordingExpired(v)
			} else {
				pm.ProposalAccepted(v, time.Millisecond)
			}
			check(v+1, "alternation")
			v++
		}
	})
}

// TestPacemakerContractIdleDelay: pacing is off exactly when IdleBackoff is
// zero, and a paced delay never exceeds the configured backoff nor half
// the recording timeout the arm would arm next — the landing-window
// invariant that keeps a paced proposal inside the recording window.
func TestPacemakerContractIdleDelay(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	cfg.MinTimeout = 4 * time.Millisecond
	forEachArm(t, cfg, func(t *testing.T, arm string, pm Pacemaker) {
		if d := pm.IdleDelay(1); d != 0 {
			t.Fatalf("IdleDelay with IdleBackoff=0: got %v want 0", d)
		}
	})
	cfg.IdleBackoff = 25 * time.Millisecond
	forEachArm(t, cfg, func(t *testing.T, arm string, pm Pacemaker) {
		v := types.View(1)
		// Walk the recording timeout down (spotless halves, others reset)
		// and up (expiries) — the cap must track it the whole way.
		for i := 0; i < 50; i++ {
			if i%3 == 2 {
				pm.RecordingExpired(v)
			} else {
				pm.ProposalAccepted(v, 0)
			}
			v++
			d := pm.IdleDelay(v)
			if d <= 0 {
				t.Fatalf("IdleDelay must stay positive while IdleBackoff > 0, got %v", d)
			}
			if d > cfg.IdleBackoff {
				t.Fatalf("IdleDelay %v exceeds configured backoff %v", d, cfg.IdleBackoff)
			}
			if tR := pm.EnterView(v); d > tR/2 {
				t.Fatalf("IdleDelay %v exceeds tR/2 = %v — paced proposal would land outside the recording window", d, tR/2)
			}
		}
	})
}

// pacemakerTestReplica builds the standard 4-replica harness with the given
// arm installed.
func pacemakerTestReplica(t *testing.T, arm string, tune func(*Config)) (*Replica, *fakeContext) {
	ctx := newFakeContext(0, 4)
	cfg := DefaultConfig(4, 1)
	pm, err := PacemakerByName(arm)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pacemaker = pm
	if tune != nil {
		tune(&cfg)
	}
	r := New(ctx, cfg)
	r.Start()
	return r, ctx
}

// emptyQuorum feeds n−f empty claims for view v from the other replicas.
func emptyQuorum(r *Replica, v types.View) {
	for _, from := range []types.NodeID{1, 2, 3} {
		claim := types.Claim{View: v, Empty: true}
		r.HandleMessage(from, &types.Sync{Instance: 0, View: v, Claim: claim,
			Sig: provFor(from).Sign(types.ClaimBytes(0, claim))})
	}
}

// TestPacemakerContractTimerRearms: after a recording timer fires and the
// view resolves ∅, entering the next view arms a fresh recording timer —
// under every arm (invariant 1, instance-level).
func TestPacemakerContractTimerRearms(t *testing.T) {
	for _, arm := range PacemakerArms {
		arm := arm
		t.Run(arm, func(t *testing.T) {
			r, ctx := pacemakerTestReplica(t, arm, nil)
			in := r.Instance(0)
			for v := types.View(1); v <= 5; v++ {
				ctx.timers = nil
				r.HandleTimer(protocol.TimerTag{Kind: protocol.TimerRecording, Instance: 0, View: v})
				emptyQuorum(r, v)
				if got := in.CurrentView(); got != v+1 {
					t.Fatalf("view after ∅ resolution of %d: got %d want %d", v, got, v+1)
				}
				rearmed := false
				for _, tag := range ctx.timers {
					if tag.Kind == protocol.TimerRecording && tag.View == v+1 {
						rearmed = true
					}
				}
				if !rearmed {
					t.Fatalf("no recording timer armed for view %d after the view-%d timer fired", v+1, v)
				}
			}
		})
	}
}

// TestPacemakerContractMonotoneView: view entry never goes backwards — a
// catch-up jump moves forward, and stale timers or old-view messages never
// re-enter a left view (invariant 4).
func TestPacemakerContractMonotoneView(t *testing.T) {
	for _, arm := range PacemakerArms {
		arm := arm
		t.Run(arm, func(t *testing.T) {
			r, _ := pacemakerTestReplica(t, arm, nil)
			in := r.Instance(0)
			// f+1 replicas prove view 10 exists: catch-up jump.
			for _, from := range []types.NodeID{1, 2} {
				claim := types.Claim{View: 10, Empty: true}
				r.HandleMessage(from, &types.Sync{Instance: 0, View: 10, Claim: claim,
					Sig: provFor(from).Sign(types.ClaimBytes(0, claim))})
			}
			if got := in.CurrentView(); got != 10 {
				t.Fatalf("catch-up jump: got view %d want 10", got)
			}
			if r.Resyncs() == 0 {
				t.Fatal("catch-up jump did not count as a resync")
			}
			// Stale events from views long left must not move the view back.
			r.HandleTimer(protocol.TimerTag{Kind: protocol.TimerRecording, Instance: 0, View: 2})
			r.HandleTimer(protocol.TimerTag{Kind: protocol.TimerCertifying, Instance: 0, View: 3})
			p := buildProposal(0, 4, types.Justification{Kind: types.JustGenesis}, 0)
			r.HandleMessage(0, p)
			if got := in.CurrentView(); got != 10 {
				t.Fatalf("stale events moved the view to %d — entry must be monotone", got)
			}
		})
	}
}

// TestPacemakerContractNoProposeAfterOwnClaim: a paced (idle-backoff)
// proposal timer that fires after the replica already claimed ∅ in that
// view must not propose — the claim is a promise not to accept a late
// proposal, and a post-claim proposal would burn a client batch on a view
// nobody can vote for (invariant 3).
func TestPacemakerContractNoProposeAfterOwnClaim(t *testing.T) {
	for _, arm := range PacemakerArms {
		arm := arm
		t.Run(arm, func(t *testing.T) {
			r, ctx := pacemakerTestReplica(t, arm, func(cfg *Config) {
				cfg.IdleBackoff = 5 * time.Millisecond
			})
			in := r.Instance(0)
			// Advance to view 4 — the first view where replica 0 is primary
			// — via ∅ resolutions.
			for v := types.View(1); v <= 3; v++ {
				r.HandleTimer(protocol.TimerTag{Kind: protocol.TimerRecording, Instance: 0, View: v})
				emptyQuorum(r, v)
			}
			if got := in.CurrentView(); got != 4 {
				t.Fatalf("setup: got view %d want 4", got)
			}
			// Entering view 4 as an idle primary paced the proposal.
			paced := false
			for _, tag := range ctx.timers {
				if tag.Kind == protocol.TimerPropose && tag.View == 4 {
					paced = true
				}
			}
			if !paced {
				t.Fatal("idle primary did not pace its proposal")
			}
			// The recording timer fires first: we claim(∅) for view 4.
			r.HandleTimer(protocol.TimerTag{Kind: protocol.TimerRecording, Instance: 0, View: 4})
			if in.vs(4).ownSync == nil {
				t.Fatal("setup: recording expiry did not claim ∅")
			}
			// The paced proposal timer fires after the claim: no proposal.
			ctx.sent = nil
			r.HandleTimer(protocol.TimerTag{Kind: protocol.TimerPropose, Instance: 0, View: 4})
			for _, m := range ctx.sent {
				if p, ok := m.(*types.Propose); ok && p.View == 4 {
					t.Fatal("paced proposal fired after own claim(∅)")
				}
			}
			if in.proposedView >= 4 {
				t.Fatal("proposedView advanced after own claim(∅)")
			}
		})
	}
}
