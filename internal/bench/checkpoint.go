package bench

import (
	"fmt"
	"time"

	"spotless/internal/core"
)

func init() {
	Figures = append(Figures, Figure{
		ID:    "ablation-checkpoint",
		Title: "Ablation: checkpointing — steady-state memory bound and crash/recovery via state transfer",
		Run:   figure(CheckpointAblation),
	})
}

// CheckpointAblation benchmarks the checkpoint + GC + state-transfer
// subsystem along its two claims:
//
//   - bounded memory: with checkpointing disabled (and the fixed retention
//     window widened out of the way) per-instance proposal/view bookkeeping
//     grows with the number of views passed; with checkpointing every K
//     heights it stays O(K), at no throughput cost;
//   - crash recovery: a replica killed mid-run and revived with empty state
//     can only re-enter the rotation through the stable checkpoint — under
//     a bounded retention window alone it never rebuilds the pruned chain,
//     while with checkpointing it installs the stable state and commits new
//     batches within a bounded delay.
func CheckpointAblation(quick bool) []Table {
	n := 32
	if quick {
		n = 16
	}
	var out []Table

	// --- steady-state retained consensus state ---
	t1 := &Table{ID: "ablation-checkpoint", Title: fmt.Sprintf("retained consensus state after a long run, SpotLess, n=%d", n),
		Headers: []string{"variant", "max proposals", "max view states", "ktxn/s"}}
	for _, interval := range []int{0, 64} {
		res := Run(Options{Protocol: SpotLess, N: n,
			CheckpointInterval: interval,
			RetentionViews:     1 << 30, // disable the fixed-window fallback: expose raw growth
			Measure:            800 * time.Millisecond,
		})
		name := "no checkpoints (state grows with views)"
		if interval > 0 {
			name = fmt.Sprintf("checkpoint every %d heights (state O(K))", interval)
		}
		t1.Rows = append(t1.Rows, []string{name,
			fmt.Sprintf("%d", res.StateProposals), fmt.Sprintf("%d", res.StateViews),
			ktps(res.Throughput)})
	}
	out = append(out, *t1)

	// --- kill-and-rejoin ---
	// One replica crashes at 300 ms and restarts with empty state at 600 ms.
	// Both variants bound memory: the baseline by a fixed retention window
	// (views outside it are pruned, so the rejoiner's Asks go unanswered),
	// the checkpoint variant by GC at the stable frontier plus state
	// transfer for anyone behind it.
	t2 := &Table{ID: "ablation-rejoin", Title: fmt.Sprintf("kill-and-rejoin, SpotLess, n=%d, crash@300ms revive@600ms", n),
		Headers: []string{"variant", "recovery after revival", "ktxn/s during fault"}}
	for _, interval := range []int{0, 16} {
		o := Options{Protocol: SpotLess, N: n,
			CheckpointInterval: interval,
			Failures:           1,
			FailAt:             300 * time.Millisecond,
			ReviveAt:           600 * time.Millisecond,
			Attack:             core.AttackNone,
			Warmup:             250 * time.Millisecond,
			Measure:            600 * time.Millisecond,
		}
		if interval == 0 {
			o.RetentionViews = 16 // bounded memory without checkpoints
		}
		res := Run(o)
		name := fmt.Sprintf("retention window only (%d views)", o.RetentionViews)
		rec := "not recovered (chain pruned)"
		if interval > 0 {
			name = fmt.Sprintf("checkpoint every %d heights + state transfer", interval)
		}
		if res.ReviveRecovery > 0 {
			rec = lat(res.ReviveRecovery) + " ms"
		}
		t2.Rows = append(t2.Rows, []string{name, rec, ktps(res.Throughput)})
	}
	out = append(out, *t2)
	return out
}
