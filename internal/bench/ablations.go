package bench

import (
	"fmt"
	"time"

	"spotless/internal/simnet"
)

func init() {
	Figures = append(Figures, Figure{
		ID:    "ablation",
		Title: "Ablations: fast path (§6.1), message buffering (§6.1), QC verification (§6.2), verification pipeline",
		Run:   figure(Ablations),
	})
}

// Ablations benchmarks the reproduction's design choices:
//
//   - the geo fast path: the optimistic next-view proposal should cut WAN
//     latency without hurting LAN throughput;
//   - message buffering: removing it explodes per-packet costs;
//   - HotStuff QC verification: the n−f signature checks are the protocol's
//     dominant cost (the paper's explanation for its 3803% gap).
func Ablations(quick bool) []Table {
	n := 32
	if quick {
		n = 16
	}
	var out []Table

	t1 := &Table{ID: "ablation-fastpath", Title: fmt.Sprintf("SpotLess geo fast path, n=%d, 4 regions", n),
		Headers: []string{"variant", "ktxn/s", "avg latency ms"}}
	for _, fp := range []bool{false, true} {
		res := Run(Options{Protocol: SpotLess, N: n, RegionCount: 4, FastPath: fp,
			Measure: 400 * time.Millisecond})
		name := "slow path (wait for votes)"
		if fp {
			name = "fast path (optimistic propose)"
		}
		t1.Rows = append(t1.Rows, []string{name, ktps(res.Throughput), lat(res.AvgLatency)})
	}
	out = append(out, *t1)

	t2 := &Table{ID: "ablation-buffering", Title: fmt.Sprintf("message buffering, SpotLess, n=%d", n),
		Headers: []string{"variant", "ktxn/s", "avg latency ms"}}
	for _, nb := range []bool{false, true} {
		res := Run(Options{Protocol: SpotLess, N: n, NoBuffering: nb,
			Measure: 300 * time.Millisecond})
		name := "buffered (§6.1)"
		if nb {
			name = "unbuffered"
		}
		t2.Rows = append(t2.Rows, []string{name, ktps(res.Throughput), lat(res.AvgLatency)})
	}
	out = append(out, *t2)

	t3 := &Table{ID: "ablation-qcverify", Title: fmt.Sprintf("HotStuff QC verification cost, n=%d", n),
		Headers: []string{"variant", "ktxn/s", "avg latency ms"}}
	for _, skip := range []bool{false, true} {
		res := Run(Options{Protocol: HotStuff, N: n, SkipQCVerify: skip,
			Measure: 400 * time.Millisecond})
		name := "verify n−f signatures (§6.2)"
		if skip {
			name = "free verification (threshold-signature ideal)"
		}
		t3.Rows = append(t3.Rows, []string{name, ktps(res.Throughput), lat(res.AvgLatency)})
	}
	out = append(out, *t3)

	// Verification pipeline: the DS-bound baselines verify n−f-signature
	// certificates on every ingress path; fanning each certificate across
	// the node's cores (instead of serializing it on the event loop) is
	// the before/after this PR's refactor targets. VerifyCores=1 is the
	// serial pre-pipeline model.
	t4 := &Table{ID: "ablation-verify-pipeline",
		Title:   fmt.Sprintf("parallel verification pipeline (DS-bound protocols), n=%d", n),
		Headers: []string{"protocol", "verify cores", "ktxn/s", "avg latency ms"}}
	for _, p := range []Protocol{HotStuff, NarwhalHS} {
		for _, vc := range []int{1, 0} {
			res := Run(Options{Protocol: p, N: n, VerifyCores: vc,
				Measure: 400 * time.Millisecond})
			width := "1 (serial)"
			if vc != 1 {
				width = fmt.Sprintf("%d (pipelined)", simnet.DefaultConfig(n).Cores)
			}
			t4.Rows = append(t4.Rows, []string{string(p), width, ktps(res.Throughput), lat(res.AvgLatency)})
		}
	}
	out = append(out, *t4)
	return out
}
