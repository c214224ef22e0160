package bench

import (
	"testing"
	"time"
)

// TestDissemCommits is the dissemination smoke: a digest-ordering cluster
// on the simulator commits real batches and the latency pipeline reports
// sane tails.
func TestDissemCommits(t *testing.T) {
	o := dissemOpts(100, true)
	o.Measure = 200 * time.Millisecond
	res := Run(o)
	if res.Batches == 0 {
		t.Fatalf("digest ordering committed no batches: %+v", res)
	}
	if res.Throughput <= 0 {
		t.Fatalf("no throughput under digest ordering: %+v", res)
	}
	if res.P50Latency <= 0 || res.P99Latency < res.P50Latency {
		t.Fatalf("implausible latency tails: p50=%v p99=%v", res.P50Latency, res.P99Latency)
	}
}
