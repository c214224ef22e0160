package bench

import (
	"fmt"
	"testing"
)

// BenchmarkInstanceParallel reports the commit throughput of the
// instance-parallel core at m=8 across worker counts on the simulator's
// modelled cores (virtual time, deterministic — independent of the CI
// host's core count). workers=1 is the seed's single event loop; workers=8
// gives every instance its own lane behind the serialized ordering stage.
func BenchmarkInstanceParallel(b *testing.B) {
	for _, w := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("m=8/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := Run(InstParOptions(8, 8, w))
				b.ReportMetric(res.Throughput/1000, "ktxn/s")
				b.ReportMetric(float64(res.AvgLatency.Microseconds())/1000, "lat-ms")
			}
		})
	}
}

// TestInstanceParallelSpeedup enforces the PR's acceptance criterion on the
// simulator's modelled cores: at m=8, eight workers must at least double
// the commit throughput of the single event loop. Deterministic (virtual
// time), so it cannot flake with host load.
func TestInstanceParallelSpeedup(t *testing.T) {
	serial := Run(InstParOptions(8, 8, 1))
	parallel := Run(InstParOptions(8, 8, 8))
	if serial.Throughput <= 0 {
		t.Fatal("single-loop run committed nothing")
	}
	ratio := parallel.Throughput / serial.Throughput
	t.Logf("m=8: workers=1 %.1f ktxn/s, workers=8 %.1f ktxn/s (%.2fx)",
		serial.Throughput/1000, parallel.Throughput/1000, ratio)
	if ratio < 2.0 {
		t.Fatalf("instance-parallel speedup %.2fx < 2x at m=8 (workers 8 vs 1)", ratio)
	}
}
