package bench

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"spotless/internal/core"
)

// Table is one regenerated table/figure panel.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Figure couples an experiment or drill id with its runner. quick scales a
// figure's sweep down (n ≤ 32) for CI-sized runs; full reproduces the
// paper's parameters. seeds and seedBase pick a drill's seed range (0 = the
// drill's default). Run returns the tables and the verdict: nil, or an
// error naming every failed check.
type Figure struct {
	ID    string
	Title string
	Run   func(quick bool, seeds int, seedBase int64) ([]Table, error)
}

// figure adapts a paper figure or ablation: no seeds, no verdict.
func figure(run func(quick bool) []Table) func(bool, int, int64) ([]Table, error) {
	return func(quick bool, _ int, _ int64) ([]Table, error) { return run(quick), nil }
}

// Figures indexes every reproduced figure; ablations and drills add theirs.
var Figures = []Figure{
	{"fig1", "Figure 1: measured communication cost per consensus decision", figure(Fig1Complexity)},
	{"fig7a", "Figure 7(a): scalability — throughput vs number of replicas", figure(Fig7aScalability)},
	{"fig7b", "Figure 7(b): batching — throughput vs batch size", figure(Fig7bBatching)},
	{"fig7c", "Figure 7(c): throughput vs latency (load sweep)", figure(Fig7cThroughputLatency)},
	{"fig7d", "Figure 7(d): throughput vs transaction size", figure(Fig7dTxnSize)},
	{"fig7e", "Figure 7(e): impact of failures (count)", figure(Fig7eFailures)},
	{"fig7f", "Figure 7(f): impact of failures (ratio of f)", figure(Fig7fFailureRatio)},
	{"fig8", "Figure 8: SpotLess under failures across cluster sizes", figure(Fig8SpotLessFailures)},
	{"fig9", "Figure 9: throughput-latency with failures (SpotLess vs RCC)", figure(Fig9LatencyFailures)},
	{"fig10", "Figure 10: parallel transaction processing (client batches per primary)", figure(Fig10Parallel)},
	{"fig11", "Figure 11: Byzantine attacks A1–A4", figure(Fig11Byzantine)},
	{"fig12", "Figure 12: real-time throughput timeline around failures", figure(Fig12Timeline)},
	{"fig13", "Figure 13: throughput vs number of concurrent instances", figure(Fig13Instances)},
	{"fig14a", "Figure 14(a): impact of computing power (CPU cores)", figure(Fig14aCores)},
	{"fig14b", "Figure 14(b): impact of network bandwidth", figure(Fig14bBandwidth)},
	{"fig14cd", "Figure 14(c,d): impact of geo-distribution (regions)", figure(Fig14cdRegions)},
	{"fig15", "Figure 15: single-instance SpotLess vs HotStuff under attacks", figure(Fig15SingleInstance)},
}

// Select resolves a `spotless-bench -run` value: "all", or comma-separated
// ids, each of which must name an entry.
func Select(ids string) ([]Figure, error) {
	if ids == "all" {
		return Figures, nil
	}
	var selected []Figure
	for _, id := range strings.Split(ids, ",") {
		i := slices.IndexFunc(Figures, func(f Figure) bool { return f.ID == strings.TrimSpace(id) })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q; use -list", id)
		}
		selected = append(selected, Figures[i])
	}
	return selected, nil
}

func fullScale(quick bool) int {
	if quick {
		return 32
	}
	return 128
}

func ktps(v float64) string { return fmt.Sprintf("%.1f", v/1000) }

func lat(d time.Duration) string { return fmt.Sprintf("%.1f", d.Seconds()*1000) }

// Fig1Complexity measures protocol messages per consensus decision and
// compares them against the analytical costs of Figure 1.
func Fig1Complexity(quick bool) []Table {
	n := 32
	if quick {
		n = 16
	}
	f := (n - 1) / 3
	analytic := map[Protocol]string{
		SpotLess:  fmt.Sprintf("n^2 = %d", n*n),
		Pbft:      fmt.Sprintf("2n^2 = %d", 2*n*n),
		RCC:       fmt.Sprintf("2n^2 = %d", 2*n*n),
		HotStuff:  fmt.Sprintf("2n = %d", 2*n),
		NarwhalHS: fmt.Sprintf("~(2n+2f+1) = %d", 2*n+2*f+1),
	}
	t := &Table{ID: "fig1", Title: fmt.Sprintf("messages per decision at n=%d (measured vs analytical)", n),
		Headers: []string{"protocol", "measured msgs/decision", "analytical (Figure 1)"}}
	for _, p := range AllProtocols {
		res := Run(Options{Protocol: p, N: n})
		t.Rows = append(t.Rows, []string{string(p), fmt.Sprintf("%.0f", res.MsgsPerBatch), analytic[p]})
	}
	return []Table{*t}
}

// Fig7aScalability: throughput vs n for all protocols.
func Fig7aScalability(quick bool) []Table {
	ns := []int{4, 16, 32, 64, 96, 128}
	if quick {
		ns = []int{4, 16, 32}
	}
	t := &Table{ID: "fig7a", Title: "throughput (ktxn/s) vs number of replicas, batch=100",
		Headers: append([]string{"n"}, protoHeaders()...)}
	for _, n := range ns {
		row := []string{fmt.Sprint(n)}
		for _, p := range AllProtocols {
			res := Run(Options{Protocol: p, N: n})
			row = append(row, ktps(res.Throughput))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{*t}
}

// Fig7bBatching: throughput vs batch size at full scale.
func Fig7bBatching(quick bool) []Table {
	n := fullScale(quick)
	sizes := []int{10, 50, 100, 200, 400}
	t := &Table{ID: "fig7b", Title: fmt.Sprintf("throughput (ktxn/s) vs batch size, n=%d", n),
		Headers: append([]string{"batch"}, protoHeaders()...)}
	for _, bs := range sizes {
		row := []string{fmt.Sprint(bs)}
		for _, p := range AllProtocols {
			res := Run(Options{Protocol: p, N: n, BatchSize: bs})
			row = append(row, ktps(res.Throughput))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{*t}
}

// Fig7cThroughputLatency: latency as a function of throughput, produced by
// sweeping the closed-loop load.
func Fig7cThroughputLatency(quick bool) []Table {
	n := fullScale(quick)
	t := &Table{ID: "fig7c", Title: fmt.Sprintf("latency (ms) vs throughput (ktxn/s), n=%d, load sweep", n),
		Headers: []string{"protocol", "load", "ktxn/s", "avg ms", "p99 ms"}}
	for _, p := range AllProtocols {
		for _, mult := range []int{1, 2, 4, 8} {
			o := Options{Protocol: p, N: n}
			o.Outstanding = defaultOutstanding(p) * mult / 4
			if o.Outstanding < 1 {
				o.Outstanding = 1
			}
			res := Run(o)
			t.Rows = append(t.Rows, []string{string(p), fmt.Sprint(o.Outstanding),
				ktps(res.Throughput), lat(res.AvgLatency), lat(res.P99Latency)})
		}
	}
	return []Table{*t}
}

func defaultOutstanding(p Protocol) int {
	switch p {
	case Pbft, HotStuff:
		return 128
	case NarwhalHS:
		return 32
	default:
		return 8
	}
}

func protoHeaders() []string {
	out := make([]string, len(AllProtocols))
	for i, p := range AllProtocols {
		out[i] = string(p)
	}
	return out
}

// Fig7dTxnSize: throughput vs per-transaction wire size.
func Fig7dTxnSize(quick bool) []Table {
	n := fullScale(quick)
	sizes := []int{48, 200, 400, 800, 1600}
	t := &Table{ID: "fig7d", Title: fmt.Sprintf("throughput (ktxn/s) vs transaction size (B), n=%d", n),
		Headers: append([]string{"txn B"}, protoHeaders()...)}
	for _, sz := range sizes {
		val := sz - 15 // wire overhead per txn
		if val < 1 {
			val = 1
		}
		row := []string{fmt.Sprint(sz)}
		for _, p := range AllProtocols {
			res := Run(Options{Protocol: p, N: n, TxnValueSz: val})
			row = append(row, ktps(res.Throughput))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{*t}
}

// Fig7eFailures: throughput vs number of non-responsive replicas.
func Fig7eFailures(quick bool) []Table {
	n := fullScale(quick)
	counts := []int{0, 1, 2, 4, 8, 10}
	if quick {
		counts = []int{0, 1, 2}
	}
	t := &Table{ID: "fig7e", Title: fmt.Sprintf("throughput (ktxn/s) vs non-responsive replicas, n=%d", n),
		Headers: append([]string{"failures"}, protoHeaders()...)}
	for _, g := range counts {
		row := []string{fmt.Sprint(g)}
		for _, p := range AllProtocols {
			res := Run(Options{Protocol: p, N: n, Failures: g})
			row = append(row, ktps(res.Throughput))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{*t}
}

// Fig7fFailureRatio: throughput vs failure ratio (out of f).
func Fig7fFailureRatio(quick bool) []Table {
	n := fullScale(quick)
	f := (n - 1) / 3
	ratios := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	if quick {
		ratios = []float64{0, 0.5, 1.0}
	}
	t := &Table{ID: "fig7f", Title: fmt.Sprintf("throughput (ktxn/s) vs failure ratio (of f=%d), n=%d", f, n),
		Headers: append([]string{"ratio"}, protoHeaders()...)}
	for _, r := range ratios {
		g := int(r * float64(f))
		row := []string{fmt.Sprintf("%.1f", r)}
		for _, p := range AllProtocols {
			res := Run(Options{Protocol: p, N: n, Failures: g})
			row = append(row, ktps(res.Throughput))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{*t}
}

// Fig8SpotLessFailures: SpotLess under failures across cluster sizes.
func Fig8SpotLessFailures(quick bool) []Table {
	ns := []int{32, 64, 96, 128}
	counts := []int{0, 1, 2, 4, 8, 10}
	if quick {
		ns = []int{16, 32}
		counts = []int{0, 1, 2}
	}
	t1 := &Table{ID: "fig8-count", Title: "SpotLess throughput (ktxn/s) vs failure count",
		Headers: []string{"failures"}}
	for _, n := range ns {
		t1.Headers = append(t1.Headers, fmt.Sprintf("n=%d", n))
	}
	for _, g := range counts {
		row := []string{fmt.Sprint(g)}
		for _, n := range ns {
			res := Run(Options{Protocol: SpotLess, N: n, Failures: g})
			row = append(row, ktps(res.Throughput))
		}
		t1.Rows = append(t1.Rows, row)
	}
	ratios := []float64{0, 0.5, 1.0}
	t2 := &Table{ID: "fig8-ratio", Title: "SpotLess throughput (ktxn/s) vs failure ratio (of f)",
		Headers: t1.Headers}
	t2.Headers = append([]string{"ratio"}, t1.Headers[1:]...)
	for _, r := range ratios {
		row := []string{fmt.Sprintf("%.1f", r)}
		for _, n := range ns {
			g := int(r * float64((n-1)/3))
			res := Run(Options{Protocol: SpotLess, N: n, Failures: g})
			row = append(row, ktps(res.Throughput))
		}
		t2.Rows = append(t2.Rows, row)
	}
	return []Table{*t1, *t2}
}

// Fig9LatencyFailures: throughput-latency with 1 and f failures.
func Fig9LatencyFailures(quick bool) []Table {
	n := fullScale(quick)
	f := (n - 1) / 3
	var out []Table
	for _, g := range []int{1, f} {
		t := &Table{ID: fmt.Sprintf("fig9-%df", g),
			Title:   fmt.Sprintf("latency vs throughput with %d failures, n=%d", g, n),
			Headers: []string{"protocol", "load", "ktxn/s", "avg ms"}}
		for _, p := range []Protocol{SpotLess, RCC} {
			for _, mult := range []int{1, 2, 4} {
				o := Options{Protocol: p, N: n, Failures: g, Outstanding: defaultOutstanding(p) * mult / 2}
				if o.Outstanding < 1 {
					o.Outstanding = 1
				}
				res := Run(o)
				t.Rows = append(t.Rows, []string{string(p), fmt.Sprint(o.Outstanding),
					ktps(res.Throughput), lat(res.AvgLatency)})
			}
		}
		out = append(out, *t)
	}
	return out
}

// Fig10Parallel: throughput and latency as a function of the number of
// client batches each primary receives (the paper sweeps 12–200; our
// closed-loop equivalent sweeps outstanding batches per instance).
func Fig10Parallel(quick bool) []Table {
	n := fullScale(quick)
	f := (n - 1) / 3
	loads := []int{1, 2, 4, 8, 16}
	t := &Table{ID: "fig10", Title: fmt.Sprintf("SpotLess/RCC vs client batches per primary, n=%d (0/1/f failures)", n),
		Headers: []string{"protocol", "failures", "load", "ktxn/s", "avg ms"}}
	for _, p := range []Protocol{SpotLess, RCC} {
		for _, g := range []int{0, 1, f} {
			for _, l := range loads {
				res := Run(Options{Protocol: p, N: n, Failures: g, Outstanding: l})
				t.Rows = append(t.Rows, []string{string(p), fmt.Sprint(g), fmt.Sprint(l),
					ktps(res.Throughput), lat(res.AvgLatency)})
			}
		}
	}
	return []Table{*t}
}

// Fig11Byzantine: SpotLess under attacks A1–A4, with RCC under A1 for
// comparison.
func Fig11Byzantine(quick bool) []Table {
	n := fullScale(quick)
	f := (n - 1) / 3
	counts := []int{0, 1, 2, 4, 8, 10}
	if quick {
		counts = []int{0, 1, 2}
	}
	attacks := []struct {
		name string
		mode core.AttackMode
	}{
		{"A1", core.AttackNone}, // A1 = non-responsive (substrate-injected)
		{"A2", core.AttackDark},
		{"A3", core.AttackEquivocate},
		{"A4", core.AttackSubvert},
	}
	t := &Table{ID: "fig11", Title: fmt.Sprintf("throughput (ktxn/s) under Byzantine attacks, n=%d", n),
		Headers: []string{"failures", "SPL-A1", "SPL-A2", "SPL-A3", "SPL-A4", "RCC-A1"}}
	for _, g := range counts {
		row := []string{fmt.Sprint(g)}
		for _, a := range attacks {
			res := Run(Options{Protocol: SpotLess, N: n, Failures: g, Attack: a.mode})
			row = append(row, ktps(res.Throughput))
		}
		res := Run(Options{Protocol: RCC, N: n, Failures: g})
		row = append(row, ktps(res.Throughput))
		t.Rows = append(t.Rows, row)
	}
	_ = f
	return []Table{*t}
}

// Fig12Timeline: real-time throughput around a failure injection. The paper
// runs 140 s at n=128; we run a scaled window at n=32 (quick: n=16), with
// failures injected after the warmup — the shapes (SpotLess stability vs
// RCC suspension oscillation) are scale-independent.
func Fig12Timeline(quick bool) []Table {
	n := 32
	if quick {
		n = 16
	}
	f := (n - 1) / 3
	bucket := 250 * time.Millisecond
	var out []Table
	for _, p := range []Protocol{SpotLess, RCC} {
		for _, g := range []int{1, f} {
			o := Options{Protocol: p, N: n, Failures: g,
				Warmup: 500 * time.Millisecond, FailAt: time.Second,
				Measure: 6 * time.Second, TimelineBucket: bucket}
			res := Run(o)
			t := &Table{ID: fmt.Sprintf("fig12-%s-%d", p, g),
				Title:   fmt.Sprintf("%s timeline, %d failures at t=1s, n=%d", p, g, n),
				Headers: []string{"t (s)", "ktxn/s"}}
			for _, pt := range res.Timeline {
				t.Rows = append(t.Rows, []string{fmt.Sprintf("%.2f", pt.At.Seconds()),
					ktps(float64(pt.Txns) / bucket.Seconds())})
			}
			out = append(out, *t)
		}
	}
	return out
}

// Fig13Instances: throughput vs number of concurrent instances.
func Fig13Instances(quick bool) []Table {
	var out []Table
	ns := []int{64, 128}
	if quick {
		ns = []int{16}
	}
	for _, n := range ns {
		ms := []int{1, n / 8, n / 4, n / 2, n}
		t := &Table{ID: fmt.Sprintf("fig13-n%d", n),
			Title:   fmt.Sprintf("throughput (ktxn/s) vs concurrent instances, n=%d", n),
			Headers: []string{"instances", "SpotLess", "RCC"}}
		for _, m := range ms {
			if m < 1 {
				continue
			}
			r1 := Run(Options{Protocol: SpotLess, N: n, Instances: m})
			r2 := Run(Options{Protocol: RCC, N: n, Instances: m})
			t.Rows = append(t.Rows, []string{fmt.Sprint(m), ktps(r1.Throughput), ktps(r2.Throughput)})
		}
		out = append(out, *t)
	}
	return out
}

// Fig14aCores: throughput vs CPU cores per replica.
func Fig14aCores(quick bool) []Table {
	n := fullScale(quick)
	t := &Table{ID: "fig14a", Title: fmt.Sprintf("throughput (ktxn/s) vs CPU cores, n=%d", n),
		Headers: append([]string{"cores"}, protoHeaders()...)}
	for _, c := range []int{4, 8, 16, 32} {
		row := []string{fmt.Sprint(c)}
		for _, p := range AllProtocols {
			res := Run(Options{Protocol: p, N: n, Cores: c})
			row = append(row, ktps(res.Throughput))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{*t}
}

// Fig14bBandwidth: throughput vs egress bandwidth.
func Fig14bBandwidth(quick bool) []Table {
	n := fullScale(quick)
	t := &Table{ID: "fig14b", Title: fmt.Sprintf("throughput (ktxn/s) vs bandwidth (Mbit/s), n=%d", n),
		Headers: append([]string{"Mbit/s"}, protoHeaders()...)}
	for _, bw := range []float64{500, 1000, 2000, 3000, 4000} {
		row := []string{fmt.Sprint(bw)}
		for _, p := range AllProtocols {
			res := Run(Options{Protocol: p, N: n, BandwidthMbps: bw})
			row = append(row, ktps(res.Throughput))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{*t}
}

// Fig14cdRegions: throughput vs number of WAN regions at two batch sizes.
func Fig14cdRegions(quick bool) []Table {
	n := fullScale(quick)
	var out []Table
	for _, bs := range []int{100, 400} {
		t := &Table{ID: fmt.Sprintf("fig14cd-b%d", bs),
			Title:   fmt.Sprintf("throughput (ktxn/s) vs regions, batch=%d, n=%d", bs, n),
			Headers: append([]string{"regions"}, protoHeaders()...)}
		for _, k := range []int{1, 2, 3, 4} {
			row := []string{fmt.Sprint(k)}
			for _, p := range AllProtocols {
				res := Run(Options{Protocol: p, N: n, BatchSize: bs, RegionCount: k})
				row = append(row, ktps(res.Throughput))
			}
			t.Rows = append(t.Rows, row)
		}
		out = append(out, *t)
	}
	return out
}

// Fig15SingleInstance: single-instance SpotLess vs HotStuff under the four
// attacks, ratio-of-f sweep.
func Fig15SingleInstance(quick bool) []Table {
	n := fullScale(quick)
	f := (n - 1) / 3
	ratios := []float64{0, 0.33, 0.66, 1.0}
	attacks := []struct {
		name string
		mode core.AttackMode
	}{
		{"A1", core.AttackNone},
		{"A2", core.AttackDark},
		{"A3", core.AttackEquivocate},
		{"A4", core.AttackSubvert},
	}
	var out []Table
	for _, p := range []Protocol{SpotLess, HotStuff} {
		t := &Table{ID: fmt.Sprintf("fig15-%s", p),
			Title:   fmt.Sprintf("single-instance %s throughput (ktxn/s) under attacks, n=%d", p, n),
			Headers: []string{"ratio", "A1", "A2", "A3", "A4"}}
		for _, r := range ratios {
			g := int(r * float64(f))
			row := []string{fmt.Sprintf("%.2f", r)}
			for _, a := range attacks {
				res := Run(Options{Protocol: p, N: n, Instances: 1, Failures: g, Attack: a.mode})
				row = append(row, ktps(res.Throughput))
			}
			t.Rows = append(t.Rows, row)
		}
		out = append(out, *t)
	}
	return out
}
