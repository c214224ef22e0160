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
