package bench

import (
	"reflect"
	"strings"
	"testing"

	"spotless/internal/core"
)

// TestSafetyDrillStrictSweep: across a sweep of seeded adversary schedules
// (targeted delay/drop/partition rules plus periodic equivocation), honest
// ledgers never diverge block-for-block under the strict resolution rules —
// the Lemma 3.4 acceptance criterion, scaled for CI — under every
// view-synchronizer arm. The full bar (≥ 50 seeds) runs outside -short and
// via `spotless-bench -run safety`.
func TestSafetyDrillStrictSweep(t *testing.T) {
	seeds := 16
	if testing.Short() {
		seeds = 4
	}
	for _, arm := range core.PacemakerArms {
		if err := RunSafetyDrill(SafetyDrillOptions{Seeds: seeds, Pacemaker: arm}).Verdict(); err != nil {
			t.Errorf("%s pacemaker: %v", arm, err)
		}
	}
}

// TestSafetyDrillLegacyReproducesFork: the same harness pointed at the
// pre-refactor resolution rules reproduces the PR 4 ROADMAP divergence
// deterministically — seed 8 forks on every run, on any host (one replica's
// ledger permanently skips real batches another replica delivered). This is
// the negative control proving the drill can see the deviation the
// refactor closed; TestLegacyA3ForksLedger in internal/core pins the
// message-level A3 path.
func TestSafetyDrillLegacyReproducesFork(t *testing.T) {
	o := SafetyDrillOptions{Seeds: 1, SeedBase: 8}
	o.Legacy = true
	legacy := RunSafetyDrill(o)
	if len(legacy.Divergent) == 0 {
		t.Fatal("legacy rules no longer fork on seed 8 — the negative control lost its deviation")
	}
	if !strings.Contains(legacy.Divergent[0].Report, "diverge") {
		t.Fatalf("divergence report is not readable: %q", legacy.Divergent[0].Report)
	}
	o.Legacy = false
	if strict := RunSafetyDrill(o); len(strict.Divergent) != 0 {
		t.Fatalf("strict rules diverge on the legacy repro seed:\n%s", strict.Divergent[0].Report)
	}
}

// TestSafetyDrillDigestRowsReplay: a digest-ordering safety seed is a pure
// function of its seed. Both dissemination variants run twice at seeds 25,
// 30 and 35 and must produce the same ledgers block-for-block. The layer's
// backfill targets and lost-proposal requeue once followed map iteration
// order into the event heap, so the same seed delivered a different number
// of blocks from run to run.
func TestSafetyDrillDigestRowsReplay(t *testing.T) {
	for _, o := range []SafetyDrillOptions{{Dissem: true}, {Dissem: true, DissemCode: 2}} {
		for _, seed := range []int64{25, 30, 35} {
			a, b := runSafetySeed(o, seed), runSafetySeed(o, seed)
			if !reflect.DeepEqual(a.ledgers, b.ledgers) {
				t.Errorf("code k=%d seed %d: ledgers differ between two runs (%d vs %d blocks)",
					o.DissemCode, seed, a.delivered(), b.delivered())
			}
		}
	}
}
