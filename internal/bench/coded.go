package bench

import (
	"fmt"
	"time"
)

// This file is the erasure-coded dissemination experiment (ISSUE 10): at
// n=16 under the asymmetric WAN delay matrix with constrained per-node
// egress bandwidth, compare coded dissemination (one RS chunk per peer,
// certificates over the chunk commitment) against the full-payload push.
// The claim under test: origin egress per delivered batch drops from
// (n−1)·|B| to ~(n−1)/k·|B| while committed throughput holds — the
// bandwidth the full push burns on redundant payload copies was the
// binding resource.

func init() {
	Figures = append(Figures, Figure{
		ID:    "dissem-coded",
		Title: "Erasure-coded dissemination: origin egress and throughput, coded vs full push (n=16, WAN)",
		Run:   figure(CodedFigure),
	})
}

// CodedPoint is one batch-size point: the same WAN cluster and load run
// with full-push dissemination (k=0 control) and with coded dissemination.
type CodedPoint struct {
	BatchSize int
	K         int
	Full      Result // full-payload push (control)
	Coded     Result // erasure-coded chunks
}

// EgressRatio is coded origin-push bytes per delivered batch over the full
// push's — the headline number of the experiment (0 when the control
// delivered nothing).
func (p CodedPoint) EgressRatio() float64 {
	if p.Full.PushBytesPerBatch == 0 {
		return 0
	}
	return p.Coded.PushBytesPerBatch / p.Full.PushBytesPerBatch
}

// CodedSweepSizes is the default sweep. Batches of 1000+ txns are the
// regime the coding targets: below that the per-chunk commitment overhead
// (m hashes per message) eats the savings.
var CodedSweepSizes = []int{1000, 10000}

// CodedK is the sweep's data-chunk count. At n=16 (f=5) the certificate
// guarantees any k ≤ n−2f = 6 reconstructs; k=4 keeps a 1.5x safety margin
// while already cutting origin egress below 0.3x.
const CodedK = 4

// CodedSweep runs the coded-vs-full comparison at the given batch sizes
// (nil selects CodedSweepSizes).
func CodedSweep(sizes []int) []CodedPoint {
	if sizes == nil {
		sizes = CodedSweepSizes
	}
	out := make([]CodedPoint, 0, len(sizes))
	for _, bs := range sizes {
		out = append(out, CodedPoint{
			BatchSize: bs,
			K:         CodedK,
			Full:      Run(codedOpts(bs, 0)),
			Coded:     Run(codedOpts(bs, CodedK)),
		})
	}
	return out
}

// codedOpts is the sweep's shared configuration: a 16-replica cluster
// spread over the paper's four WAN regions, per-node egress constrained to
// 400 Mbps so payload fan-out (not CPU) is the contended resource. Both
// arms differ only in DissemCode.
//
// Outstanding is 32, deeper than the PR 6 dissemination sweep: coded
// delivery adds a chunk-pull round trip between certificate and
// reconstruction, and the closed loop must keep enough batches in flight
// to hide that WAN RTT or the coded arm measures its pipeline depth
// instead of the bandwidth it frees (the full-push arm runs the same
// window, so the comparison stays apples-to-apples).
//
// Instances stays at 4 (not the SpotLess default m=n): digest ordering
// moves payloads off the consensus critical path, so consensus parallelism
// beyond a handful of instances adds events without adding committed
// payload — and the experiment is about dissemination bandwidth, not
// instance scaling.
func codedOpts(batchSize, k int) Options {
	o := Options{
		Protocol:      SpotLess,
		N:             16,
		Instances:     4,
		BatchSize:     batchSize,
		Dissem:        true,
		DissemCode:    k,
		TuneBatchSize: 100,
		BandwidthMbps: 400,
		RegionCount:   4,
		Outstanding:   32,
	}
	o.Measure = 1500 * time.Millisecond
	if quickTrim {
		o.Measure = 400 * time.Millisecond
	}
	return o
}

// CodedFigure regenerates the dissem-coded table.
func CodedFigure(quick bool) []Table {
	sizes := CodedSweepSizes
	if quick {
		sizes = []int{1000}
	}
	t := &Table{ID: "dissem-coded",
		Title:   fmt.Sprintf("coded vs full-push dissemination (SpotLess, n=16, 4 WAN regions, 400 Mbps/node, k=%d)", CodedK),
		Headers: []string{"batch", "arm", "ktxn/s", "avg latency ms", "push KB/batch", "egress ratio", "reconstructions", "poisoned"}}
	for _, p := range CodedSweep(sizes) {
		t.Rows = append(t.Rows,
			[]string{fmt.Sprintf("%d", p.BatchSize), "full push",
				ktps(p.Full.Throughput), lat(p.Full.AvgLatency),
				fmt.Sprintf("%.0f", p.Full.PushBytesPerBatch/1024), "1.00", "—", "—"},
			[]string{fmt.Sprintf("%d", p.BatchSize), fmt.Sprintf("coded k=%d", p.K),
				ktps(p.Coded.Throughput), lat(p.Coded.AvgLatency),
				fmt.Sprintf("%.0f", p.Coded.PushBytesPerBatch/1024),
				fmt.Sprintf("%.2f", p.EgressRatio()),
				fmt.Sprintf("%d", p.Coded.Reconstructions),
				fmt.Sprintf("%d", p.Coded.ReconstructFails)},
		)
	}
	return []Table{*t}
}
