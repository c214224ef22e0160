package main

import (
	"fmt"
	"os"
	"testing"
	"time"

	"spotless/internal/crypto"
	"spotless/internal/ledger"
	"spotless/internal/rs"
	"spotless/internal/types"
	"spotless/internal/wal"
	"spotless/internal/ycsb"
)

// sink keeps the compiler from discarding a timed call's result.
var sink any

// timeOp returns the median cost of one call of fn in nanoseconds: it sizes
// a chunk to last about chunkFor, times `chunks` of them and takes the
// median, which a stray scheduling delay does not move the way it moves a
// mean.
func timeOp(fn func(), chunkFor time.Duration, chunks int) float64 {
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if el := time.Since(start); el >= chunkFor || iters >= 1<<24 {
			break
		}
		iters *= 2
	}
	per := make([]float64, chunks)
	for c := range per {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[c] = float64(time.Since(start)) / float64(iters)
	}
	return median(per)
}

// layerTable times each layer's own operations directly on seeded inputs:
// the per-layer metrics that need no running cluster. quick shrinks the
// sampling to the minimum (smoke test).
func layerTable(seed int64, quick bool) (map[string]float64, error) {
	m := make(map[string]float64)
	chunk, chunks := 4*time.Millisecond, 5
	if quick {
		chunk, chunks = 200*time.Microsecond, 1
	}
	ns := func(fn func()) float64 { return timeOp(fn, chunk, chunks) }

	// --- types: the wire codec on a 100-transaction proposal and a Sync ---
	ids := []types.NodeID{0, 1, 2, 3}
	ring := crypto.NewKeyring([]byte("spotless-benchmark"), ids)
	prov, err := ring.Provider(0)
	if err != nil {
		return nil, err
	}
	wl := ycsb.NewWorkload(seed, types.ClientIDBase, tableRecords, 33)
	batch := wl.NextBatch(batchTxns)
	prop := &types.Propose{Instance: 1, View: 7, Batch: batch,
		Parent: types.Justification{Kind: types.JustClaim, ParentView: 6, ParentDigest: batch.ID}}
	pd := prop.Digest()
	prop.Sig = prov.Sign(pd[:])
	sync := &types.Sync{Instance: 1, View: 7, Claim: types.Claim{View: 7, Digest: pd},
		CP: []types.CPEntry{{View: 6, Digest: batch.ID}}}
	sync.Sig = prov.Sign(types.ClaimBytes(1, sync.Claim))
	var buf []byte
	for _, c := range []struct {
		name string
		msg  types.Message
	}{{"propose", prop}, {"sync", sync}} {
		msg := c.msg
		wire, err := types.AppendMessage(nil, msg)
		if err != nil {
			return nil, err
		}
		m["types.encode_ns_"+c.name] = ns(func() { buf, _ = types.AppendMessage(buf[:0], msg) })
		m["types.decode_ns_"+c.name] = ns(func() { sink, _ = types.DecodeMessage(wire) })
	}
	m["types.encode_allocs_propose"] = testing.AllocsPerRun(10, func() { buf, _ = types.AppendMessage(buf[:0], prop) })

	// --- crypto ---
	msg := make([]byte, 64)
	sig := prov.Sign(msg)
	m["crypto.sign_ns"] = ns(func() { sink = prov.Sign(msg) })
	m["crypto.verify_ns"] = ns(func() { sink = prov.Verify(sig, msg) })
	m["crypto.mac_ns"] = ns(func() { sink = prov.MAC(1, msg) })
	big := make([]byte, 100<<10)
	m["crypto.digest_ns_100k"] = ns(func() { sink = crypto.Digest(big) })
	pool := crypto.NewPoolVerifier(prov, 0)
	var checks []crypto.Check
	for _, id := range ids[:3] { // n−f of n=4
		p, err := ring.Provider(id)
		if err != nil {
			return nil, err
		}
		checks = append(checks, crypto.Check{Sig: p.Sign(msg), Msg: msg})
	}
	m["crypto.verify_quorum_us"] = ns(func() { sink = pool.VerifyBatch(checks, 3) }) / 1000
	pool.Close()

	// --- rs: 100 KiB through the two layouts the workloads use ---
	for _, l := range []struct {
		name string
		k, m int
	}{{"k2n3", 2, 3}, {"k4n15", 4, 15}} {
		k, total := l.k, l.m
		shards, err := rs.Encode(k, total, big)
		if err != nil {
			return nil, err
		}
		mbS := func(nsPerOp float64) float64 { return float64(len(big)) / nsPerOp * 1000 } // bytes/ns → MB/s
		m["rs.encode_mb_s_"+l.name] = mbS(ns(func() { sink, _ = rs.Encode(k, total, big) }))
		m["rs.reconstruct_mb_s_"+l.name] = mbS(ns(func() {
			part := make([][]byte, total)
			copy(part[total-k:], shards[total-k:]) // the last k shards: every data shard missing
			sink = rs.Reconstruct(k, part)
		}))
	}

	// --- ycsb ---
	store := ycsb.NewStore(tableRecords, tableRecordSize)
	m["ycsb.apply_ns_txn"] = ns(func() { sink = store.Apply(batch) }) / batchTxns
	var snap []byte
	snapChunk := 20 * time.Millisecond
	if quick {
		snapChunk = 0
	}
	m["ycsb.snapshot_ms_100k"] = timeOp(func() { snap = store.Snapshot(128, batch.ID) }, snapChunk, chunks) / 1e6
	m["ycsb.decode_snapshot_ms_100k"] = timeOp(func() { sink, _ = ycsb.DecodeSnapshot(snap) }, snapChunk, chunks) / 1e6
	m["ycsb.snapshot_b_100k"] = float64(len(snap))

	// --- ledger ---
	lg := ledger.New()
	commit := types.Commit{Instance: 1, View: 7, Batch: batch, Proposal: pd}
	m["ledger.append_ns"] = ns(func() { sink = lg.Append(commit, batch.ID) })
	blocks := float64(lg.Height())
	m["ledger.verify_ns_block"] = timeOp(func() { sink = lg.Verify() }, chunk, chunks) / blocks

	// --- wal: one block record per append, in memory and on the OS
	// filesystem with a sync per commit ---
	appendCost := func(fsys wal.FS, dir string, appends int) (float64, error) {
		st, _, err := wal.Open(dir, wal.Config{FS: fsys, Fsync: wal.FsyncPerCommit})
		if err != nil {
			return 0, err
		}
		per := make([]float64, appends)
		rec := types.BlockRecord{BatchID: batch.ID}
		for i := range per {
			rec.Height = uint64(i)
			start := time.Now()
			if err := st.AppendBlock(rec); err != nil {
				st.Close()
				return 0, err
			}
			per[i] = us(time.Since(start))
		}
		return median(per), st.Close()
	}
	appends := 200
	if quick {
		appends = 5
	}
	if m["wal.append_us_memfs"], err = appendCost(wal.NewMemFS(), "layer-table", appends); err != nil {
		return nil, fmt.Errorf("wal on MemFS: %w", err)
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchDir, "layer-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if m["wal.append_us_osfs_sync"], err = appendCost(wal.OSFS(), dir, appends/4+1); err != nil {
		return nil, fmt.Errorf("wal on the OS filesystem: %w", err)
	}
	return m, nil
}
