package runtime_test

import (
	"bytes"
	"fmt"
	stdruntime "runtime"
	"testing"

	"spotless/internal/ledger"
	"spotless/internal/runtime"
	"spotless/internal/types"
	"spotless/internal/wal"
	"spotless/internal/ycsb"
)

// writeCommit is a commit at view v whose batch writes each key with a value
// naming the view.
func writeCommit(v int, keys ...uint64) types.Commit {
	txns := make([]types.Transaction, len(keys))
	for i, k := range keys {
		txns[i] = types.Transaction{Op: types.OpWrite, Client: types.ClientIDBase, Seq: uint64(100*v + i),
			Key: k, Value: []byte(fmt.Sprintf("view%d", v))}
	}
	b := &types.Batch{Txns: txns}
	b.ID = types.ComputeBatchID(txns)
	return types.Commit{Instance: 0, View: types.View(v), Batch: b, Proposal: types.Digest{byte(v)}}
}

// TestSnapshotAtCutSurvivesLaterWrites: the snapshot of a checkpoint cut is
// the table at the cut, although it is encoded later — after execution has
// overwritten the keys it froze — at PersistCheckpoint on a durable replica
// and at the first StateSnapshot serve on a memory-only one. The durable arm
// also reopens the WAL and finds the same bytes on disk.
func TestSnapshotAtCutSurvivesLaterWrites(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			atCut := ycsb.NewStore(100, 8) // stops at the cut
			ex := runtime.NewReplicaExecutor(0, ycsb.NewStore(100, 8), ledger.New(), nil, types.ClientIDBase)
			fsys := wal.NewMemFS()
			if durable {
				st, _, err := wal.Open("cut", wal.Config{FS: fsys})
				if err != nil {
					t.Fatal(err)
				}
				ex.BindDurable(st)
			}
			const h = 3
			for v := 1; v <= h; v++ {
				c := writeCommit(v, 0, 7, 99, 1<<40)
				ex.Execute(c)
				atCut.Apply(c.Batch)
			}
			exec := types.Digest{0xE, h}
			resume := ex.StateDigest(h, exec)
			for v := h + 1; v <= h+3; v++ {
				ex.Execute(writeCommit(v, 0, 7, 50, 99, 1<<40, 1<<41))
			}
			ex.PersistCheckpoint(types.CheckpointCert{Height: h}, exec, resume, nil)

			want := atCut.Snapshot(h, exec)
			if got := ex.StateSnapshot(h); !bytes.Equal(got, want) {
				t.Fatal("snapshot served for the cut differs from the table at the cut")
			}
			if !durable {
				return
			}
			fsys.Crash()
			_, rec, err := wal.Open("cut", wal.Config{FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.ExecSnapshot, want) {
				t.Fatalf("snapshot on disk (%d bytes) differs from the table at the cut (%d bytes)",
					len(rec.ExecSnapshot), len(want))
			}
		})
	}
}

// TestSnapshotCutCostIsHeaderCopy: cutting a checkpoint on the benchmark's
// 100 000-record table copies the table's slice headers (about 2.4 MB) and
// encodes nothing. Encoding the 7.6 MB envelope at the cut, with its key
// sort, allocated about 8.6 MB.
func TestSnapshotCutCostIsHeaderCopy(t *testing.T) {
	ex := runtime.NewReplicaExecutor(0, ycsb.NewStore(100000, 64), ledger.New(), nil, types.ClientIDBase)
	ex.Execute(writeCommit(1, 0, 500, 99999))
	var before, after stdruntime.MemStats
	stdruntime.ReadMemStats(&before)
	ex.StateDigest(1, types.Digest{1})
	stdruntime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("StateDigest allocated %.1f MiB on a 100k-record table, want ≤ 4 MiB", float64(got)/(1<<20))
	}
}
