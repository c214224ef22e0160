package bench

import (
	"fmt"
	"testing"
	"time"
)

// TestDissemCodedCommits is the coded-dissemination smoke: the n=16 WAN
// cluster under constrained bandwidth commits real batches through coded
// chunks — reconstructions happen, nothing poisons, and the origin-egress
// accounting that the experiment's headline ratio divides is populated.
func TestDissemCodedCommits(t *testing.T) {
	o := codedOpts(1000, CodedK)
	o.Measure = 300 * time.Millisecond
	res := Run(o)
	if res.Batches == 0 {
		t.Fatalf("coded dissemination committed no batches: %+v", res)
	}
	if res.Reconstructions == 0 {
		t.Fatal("no replica reconstructed from chunks — the coded path never engaged")
	}
	if res.ReconstructFails != 0 {
		t.Fatalf("%d reconstructions poisoned under an honest origin", res.ReconstructFails)
	}
	if res.PushBytesPerBatch <= 0 {
		t.Fatalf("origin egress per batch not measured: %+v", res)
	}
}

// TestDissemCodedCutsEgress pins the mechanism at test scale: the same
// cluster and load with coding on pushes strictly fewer origin bytes per
// delivered batch than the full push (the ≤0.35 acceptance bound at k=4
// runs at figure scale; this guards the direction on every CI run).
func TestDissemCodedCutsEgress(t *testing.T) {
	if testing.Short() {
		t.Skip("two n=16 cluster runs; covered by the full suite and the figure")
	}
	// The full-push control commits only a handful of batches per second at
	// this size under constrained bandwidth; the window must catch several.
	measure := 1200 * time.Millisecond
	full := codedOpts(1000, 0)
	full.Measure = measure
	coded := codedOpts(1000, CodedK)
	coded.Measure = measure
	fres, cres := Run(full), Run(coded)
	if fres.Batches == 0 || cres.Batches == 0 {
		t.Fatalf("an arm committed nothing: full=%d coded=%d batches", fres.Batches, cres.Batches)
	}
	if cres.PushBytesPerBatch >= fres.PushBytesPerBatch {
		t.Fatalf("coded origin egress %.0f B/batch not below full push %.0f B/batch",
			cres.PushBytesPerBatch, fres.PushBytesPerBatch)
	}
}

// TestSafetyDrillCodedSweep: the seeded adversary sweep (targeted
// delay/drop/partition plus the equivocating-origin composition every third
// seed) under digest ordering, with the full push (k=0) and with
// ERASURE-CODED dissemination (k=2), where delivery depends on chunk
// reconstruction — honest ledgers must agree block-for-block either way.
// The full 200-seed bars run via `spotless-bench -safety-drill 200
// -safety-dissem` and `-safety-dissem-code 2`.
func TestSafetyDrillCodedSweep(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for _, k := range []int{0, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			res := RunSafetyDrill(SafetyDrillOptions{Seeds: seeds, Dissem: true, DissemCode: k})
			if len(res.Divergent) != 0 {
				for _, d := range res.Divergent {
					t.Log(d.Report)
				}
				t.Fatalf("%d of %d adversary seeds diverged under dissemination k=%d", len(res.Divergent), seeds, k)
			}
			if res.Delivered == 0 {
				t.Fatalf("the k=%d drill delivered nothing under chaos", k)
			}
		})
	}
}

// BenchmarkDissemCoded is the CI smoke handle (1 iteration in CI, matched
// by the same `-bench Dissem` pattern as the full-push smoke): one coded
// point at the experiment's batch size.
func BenchmarkDissemCoded(b *testing.B) {
	o := codedOpts(1000, CodedK)
	o.Measure = 300 * time.Millisecond
	for i := 0; i < b.N; i++ {
		res := Run(o)
		if res.Batches == 0 {
			b.Fatal("no batches committed")
		}
		b.ReportMetric(res.Throughput/1000, "ktxn/s")
		if res.PushBytesPerBatch > 0 {
			b.ReportMetric(res.PushBytesPerBatch/1024, "pushKB/batch")
		}
	}
}
