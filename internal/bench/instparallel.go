package bench

import (
	"fmt"
	"time"
)

func init() {
	Figures = append(Figures, Figure{
		ID:    "ablation-instance-parallel",
		Title: "Ablation: instance-parallel core — commit throughput vs m × workers",
		Run:   InstanceParallel,
	})
}

// InstParOptions returns the experiment point of the instance-parallel
// sweep: small batches keep consensus costs (not the shared sequential
// execution resource) dominant, so the sweep exposes the event-loop
// bottleneck the sharded core removes.
func InstParOptions(n, m, workers int) Options {
	return Options{
		Protocol:        SpotLess,
		N:               n,
		Instances:       m,
		InstanceWorkers: workers,
		BatchSize:       10,
		Outstanding:     16,
		Measure:         250 * time.Millisecond,
	}
}

// InstanceParallel regenerates the ablation-instance-parallel table:
// commit throughput of the m concurrent instances under the simulator's
// instance-parallel model, sweeping worker lanes. workers=1 models the
// seed's single event loop (every handler of every instance serialized on
// one core); workers=m gives each instance its own lane behind the
// serialized ordering stage, the architecture of the sharded runtime.
func InstanceParallel(quick bool) []Table {
	n := 8
	t := &Table{ID: "ablation-instance-parallel",
		Title:   fmt.Sprintf("instance-parallel core (SpotLess, n=%d, modelled 1 core/lane)", n),
		Headers: []string{"m", "workers", "ktxn/s", "avg latency ms", "speedup vs 1 worker"}}
	for _, m := range []int{2, 8} {
		var base float64
		for _, w := range []int{1, 2, 8} {
			if w > m {
				continue
			}
			res := Run(InstParOptions(n, m, w))
			if w == 1 {
				base = res.Throughput
			}
			speed := "—"
			if w > 1 && base > 0 {
				speed = fmt.Sprintf("%.2fx", res.Throughput/base)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", m), fmt.Sprintf("%d", w),
				ktps(res.Throughput), lat(res.AvgLatency), speed,
			})
		}
	}
	return []Table{*t}
}
