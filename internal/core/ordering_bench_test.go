package core_test

import (
	"testing"

	"spotless/internal/core"
	"spotless/internal/types"
)

// sinkContext is a stubContext whose deliveries are counted, not retained,
// so the benchmark measures the ordering structures rather than a test
// slice's growth.
type sinkContext struct {
	stubContext
	delivered int
}

func (c *sinkContext) Deliver(types.Commit) { c.delivered++ }

// drainM is the instance count of the ordering-drain measurements.
const drainM = 8

// orderingDrain returns a step that hands the next of ops committed
// proposals to a fresh replica's ordering stage, round-robin over drainM
// instances, one view per round.
func orderingDrain(ctx *sinkContext, ops int) func() {
	r := core.New(ctx, core.DefaultConfig(4, drainM))
	batches := make([]types.Batch, ops)
	for i := range batches {
		batches[i].ID[8] = byte(i)
		batches[i].ID[9] = byte(i >> 8)
		batches[i].ID[10] = byte(i >> 16)
	}
	i, view := 0, types.View(0)
	return func() {
		if i%drainM == 0 {
			view++
		}
		r.InjectCommit(int32(i%drainM), view, &batches[i], batches[i].ID)
		i++
	}
}

// BenchmarkOrderingDrain measures the ordering stage's merge: m instances
// hand off committed proposals round-robin and every one drains through the
// (view, instance) total order. The min-heap over ring buffers replaced the
// O(m) min-scan and the leaky queue reslice of the seed;
// TestOrderingDrainAllocatesNothing holds its allocation budget.
func BenchmarkOrderingDrain(b *testing.B) {
	ctx := &sinkContext{stubContext: *newStubContext(0, 4)}
	step := orderingDrain(ctx, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	if ctx.delivered == 0 && b.N > drainM {
		b.Fatal("ordering stage delivered nothing")
	}
}

// TestOrderingDrainAllocatesNothing pins the core loop's allocation budget:
// handing a committed proposal to the ordering stage and draining it
// through the total order allocates nothing per operation at m=8.
func TestOrderingDrainAllocatesNothing(t *testing.T) {
	const runs = 200000
	ctx := &sinkContext{stubContext: *newStubContext(0, 4)}
	// AllocsPerRun calls the step once more to warm up.
	allocs := testing.AllocsPerRun(runs, orderingDrain(ctx, runs+1))
	if ctx.delivered == 0 {
		t.Fatal("ordering stage delivered nothing")
	}
	if allocs != 0 {
		t.Fatalf("ordering drain allocates %v per op, want 0", allocs)
	}
}
