package main

import (
	"testing"
	"time"

	"spotless/internal/types"
	"spotless/internal/ycsb"
)

// A batch whose first proposal is dropped — pulled by a primary and never
// heard of again — must be offered again after the client timer, be
// acknowledged exactly once however many Informs arrive, and keep its first
// due time as the start of its latency.
func TestDroppedBatchIsReofferedAndCountedOnce(t *testing.T) {
	var now time.Duration
	c := newClient(4, 1, func() time.Duration { return now })
	b := ycsb.NewWorkload(1, types.ClientIDBase, 1000, 8).NextBatch(10)

	now = 10 * time.Millisecond
	c.offer(b, 2, 7*time.Millisecond) // due at 7 ms, the generator got to it at 10 ms
	if got := c.Next(1, 0); got != nil {
		t.Fatalf("lane 1 handed out a batch queued on lane 2")
	}
	if got := c.Next(2, 0); got != b {
		t.Fatalf("lane 2: got %v, want the offered batch", got)
	}
	if got := c.Next(2, 0); got != nil {
		t.Fatalf("the batch was handed out twice from one offer")
	}

	now = 300 * time.Millisecond
	c.reoffer()
	if got := c.Next(2, 0); got != nil {
		t.Fatalf("re-offered after %v, before the %v client timer", now, retransmitAfter)
	}

	now = 10*time.Millisecond + retransmitAfter
	c.reoffer()
	if got := c.Next(2, 0); got != b {
		t.Fatalf("the dropped batch was not offered again after the client timer")
	}

	now = 600 * time.Millisecond
	results := types.Digest{1}
	c.inform(0, &types.Inform{Replica: 0, BatchID: b.ID, Results: results})
	c.inform(0, &types.Inform{Replica: 0, BatchID: b.ID, Results: results}) // a replica counts once
	c.inform(3, &types.Inform{Replica: 3, BatchID: b.ID, Results: types.Digest{9}})
	if c.outstanding() != 1 {
		t.Fatalf("acknowledged on one replica's word plus a mismatching result")
	}
	now = 610 * time.Millisecond
	c.inform(1, &types.Inform{Replica: 1, BatchID: b.ID, Results: results})
	c.inform(2, &types.Inform{Replica: 2, BatchID: b.ID, Results: results}) // late Informs change nothing
	now = 2 * time.Second
	c.reoffer()

	acked, unacked, retransmits := c.results()
	if len(acked) != 1 || len(unacked) != 0 {
		t.Fatalf("acknowledged %d and left %d unacknowledged, want 1 and 0", len(acked), len(unacked))
	}
	if retransmits != 1 {
		t.Fatalf("counted %d retransmissions, want 1", retransmits)
	}
	o := acked[0]
	if o.due != 7*time.Millisecond || o.late != 3*time.Millisecond || o.acked != 610*time.Millisecond {
		t.Fatalf("due %v late %v acked %v: latency must run from the first due time to the f+1-th matching Inform", o.due, o.late, o.acked)
	}
	if got := c.Next(2, 0); got != nil {
		t.Fatalf("an acknowledged batch was handed out again")
	}
}

// Under digest ordering a lane is one origin replica: a batch a silent
// replica never pulled moves on to the next replica's lane.
func TestReofferRotatesLanesUnderDigestOrdering(t *testing.T) {
	var now time.Duration
	c := newClient(4, 1, func() time.Duration { return now })
	c.rotate = true
	b := ycsb.NewWorkload(1, types.ClientIDBase, 1000, 8).NextBatch(10)
	c.offer(b, 3, 0)
	now = retransmitAfter
	c.reoffer()
	if got := c.Next(3, 0); got != nil {
		t.Fatalf("the batch stayed on the silent replica's lane")
	}
	if got := c.Next(0, 0); got != b {
		t.Fatalf("the batch did not move to the next lane")
	}
}

// The reply caches answer a retransmission of a batch that already executed;
// such a batch must not be queued again.
func TestReofferAsksReplyCachesFirst(t *testing.T) {
	var now time.Duration
	c := newClient(1, 1, func() time.Duration { return now })
	b := ycsb.NewWorkload(1, types.ClientIDBase, 1000, 8).NextBatch(10)
	asked := 0
	c.replay = func(id types.Digest) bool { asked++; return id == b.ID }
	c.offer(b, 0, 0)
	c.Next(0, 0)
	now = retransmitAfter
	c.reoffer()
	if asked != 1 {
		t.Fatalf("reply caches asked %d times, want 1", asked)
	}
	if got := c.Next(0, 0); got != nil {
		t.Fatalf("a batch the replicas had already executed was queued again")
	}
}
