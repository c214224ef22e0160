package runtime_test

import (
	"sync"
	"testing"
	"time"

	"spotless/internal/runtime"
	"spotless/internal/types"
	"spotless/internal/ycsb"
)

// queueSource is a simple thread-unsafe FIFO source for cluster tests
// (the cluster serializes its calls).
type queueSource struct {
	mu     sync.Mutex
	queues map[int32][]*types.Batch
}

func newQueueSource(m, batches, size int) *queueSource {
	s := &queueSource{queues: make(map[int32][]*types.Batch)}
	for i := 0; i < m; i++ {
		// One client identity per stream: streams sharing Client and Seq
		// spaces generate byte-identical batches under the Zipf key skew
		// (same seqs, same hot key, zero-filled values), which alias in the
		// delivery dedup window — harmless but thoroughly confusing in
		// divergence dumps (ROADMAP PR 4 side observation).
		wl := ycsb.NewWorkload(int64(i+1), types.ClientIDBase+types.NodeID(i), 1000, 16)
		for j := 0; j < batches; j++ {
			s.queues[int32(i)] = append(s.queues[int32(i)], wl.NextBatch(size))
		}
	}
	return s
}

// TestQueueSourceStreamsNeverAlias: workload streams must carry distinct
// client identities — otherwise the Zipf skew makes byte-identical batches
// across streams (identical seq runs on the same hot key) that collapse to
// one delivery in the dedup window.
func TestQueueSourceStreamsNeverAlias(t *testing.T) {
	src := newQueueSource(4, 20, 5)
	seen := make(map[types.Digest]int32)
	for inst, q := range src.queues {
		for _, b := range q {
			if prev, dup := seen[b.ID]; dup {
				t.Fatalf("streams %d and %d generated the same batch %x", prev, inst, b.ID[:6])
			}
			seen[b.ID] = inst
		}
	}
	// The aliasing hazard is real: identical client identities do collide.
	a := ycsb.NewWorkload(1, types.ClientIDBase, 1000, 16).NextBatch(5)
	b := ycsb.NewWorkload(2, types.ClientIDBase, 1000, 16).NextBatch(5)
	if a.ID != b.ID {
		t.Log("note: distinct seeds happened to differ — the guard above still protects the skewed case")
	}
}

func (s *queueSource) Next(instance int32, now time.Duration) *types.Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[instance]
	if len(q) == 0 {
		return nil
	}
	b := q[0]
	s.queues[instance] = q[1:]
	return b
}

// TestClusterCommitsRealCrypto: a 4-replica in-process cluster with ed25519
// signatures and YCSB execution completes client batches and all ledgers
// verify.
func TestClusterCommitsRealCrypto(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time integration test")
	}
	src := newQueueSource(2, 30, 5)
	done := make(chan struct{}, 128)
	cl, err := runtime.NewCluster(runtime.ClusterConfig{
		N: 4, Instances: 2, Source: src,
		OnDone: func(types.Digest) { done <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	deadline := time.After(20 * time.Second)
	completed := 0
	for completed < 10 {
		select {
		case <-done:
			completed++
		case <-deadline:
			t.Fatalf("only %d batches completed before deadline", completed)
		}
	}
	for i, ex := range cl.Execs {
		if err := ex.Ledger().Verify(); err != nil {
			t.Errorf("replica %d ledger: %v", i, err)
		}
	}
	// A batch completes on f+1 Informs, so replica 0 may still trail the
	// replicas that answered first; it has to catch up, not to lead.
	for cl.Execs[0].Store().Applied() == 0 {
		select {
		case <-deadline:
			t.Fatal("no transactions applied to the YCSB table")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestClusterSurvivesPartition: a temporarily isolated replica catches up
// through RVS (f+1 Sync skip + Υ retransmission) after the partition heals.
func TestClusterSurvivesPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time integration test")
	}
	src := newQueueSource(1, 200, 5)
	done := make(chan struct{}, 1024)
	cl, err := runtime.NewCluster(runtime.ClusterConfig{
		N: 4, Instances: 1, Source: src,
		OnDone: func(types.Digest) { done <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	// Isolate replica 3 in both directions.
	for i := 0; i < 3; i++ {
		cl.Transport.SetDrop(types.NodeID(i), 3, true)
		cl.Transport.SetDrop(3, types.NodeID(i), true)
	}
	waitN := func(k int, d time.Duration) int {
		completed := 0
		deadline := time.After(d)
		for completed < k {
			select {
			case <-done:
				completed++
			case <-deadline:
				return completed
			}
		}
		return completed
	}
	if got := waitN(5, 20*time.Second); got < 5 {
		t.Fatalf("no progress during partition: %d", got)
	}
	// Heal and require further progress (including replica 3's recovery).
	for i := 0; i < 3; i++ {
		cl.Transport.SetDrop(types.NodeID(i), 3, false)
		cl.Transport.SetDrop(3, types.NodeID(i), false)
	}
	if got := waitN(10, 20*time.Second); got < 10 {
		t.Fatalf("insufficient progress after heal: %d", got)
	}
	time.Sleep(time.Second)
	if v := cl.Replicas[3].Instance(0).CurrentView(); v < 5 {
		t.Errorf("replica 3 did not catch up: view=%d", v)
	}
}
