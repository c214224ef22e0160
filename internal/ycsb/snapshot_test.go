package ycsb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"testing"

	"spotless/internal/types"
)

// writeBatch builds one batch that writes each key in turn, with values that
// differ per position (and in length).
func writeBatch(keys ...uint64) *types.Batch {
	txns := make([]types.Transaction, len(keys))
	for i, k := range keys {
		txns[i] = types.Transaction{Op: types.OpWrite, Client: types.ClientIDBase, Seq: uint64(i + 1),
			Key: k, Value: []byte(fmt.Sprintf("v%d", i))}
	}
	b := &types.Batch{Txns: txns}
	b.ID = types.ComputeBatchID(txns)
	return b
}

// spreadKeys returns count keys i·stride mod m; with stride coprime to m and
// count ≤ m they are distinct and spread over [0, m).
func spreadKeys(count int, stride, m uint64) []uint64 {
	keys := make([]uint64, count)
	for i := range keys {
		keys[i] = uint64(i) * stride % m
	}
	return keys
}

// populated builds a 200-record store after 200 writes to distinct keys
// spread over [0, 240): most of the dense range, keys above it (kept in the
// sparse map), and some dense keys left at their initial payload.
func populated(t *testing.T) *Store {
	t.Helper()
	s := NewStore(200, 16)
	s.Apply(writeBatch(spreadKeys(200, 37, 240)...))
	return s
}

// TestSnapshotRoundTrip: encode → decode → restore reproduces the table
// exactly, binding and counters included.
func TestSnapshotRoundTrip(t *testing.T) {
	s := populated(t)
	exec := types.Digest{1, 2, 3}
	data := s.Snapshot(640, exec)

	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if snap.Height != 640 || snap.ExecHash != exec {
		t.Fatalf("binding: height=%d exec=%x", snap.Height, snap.ExecHash[:4])
	}
	if snap.Applied != s.Applied() {
		t.Fatalf("applied: %d != %d", snap.Applied, s.Applied())
	}

	fresh := NewStore(200, 16)
	fresh.Restore(snap)
	if fresh.Fingerprint() != s.Fingerprint() {
		t.Fatal("restored table fingerprint diverges from the source")
	}
	if fresh.Applied() != s.Applied() {
		t.Fatal("restored applied counter diverges")
	}
	for k, want := range s.Dump() {
		if got := fresh.Read(k); !bytes.Equal(got, want) {
			t.Fatalf("key %d: restored %q, want %q", k, got, want)
		}
	}
}

// TestSnapshotDeterministic: two stores that executed the same batches emit
// byte-identical snapshots (map iteration order must not leak in).
func TestSnapshotDeterministic(t *testing.T) {
	a, b := populated(t), populated(t)
	exec := types.Digest{9}
	if !bytes.Equal(a.Snapshot(64, exec), b.Snapshot(64, exec)) {
		t.Fatal("identical stores encoded different snapshots")
	}
}

// TestSnapshotEncodeIdentity: Encode(Decode(x)) == x for a real snapshot.
func TestSnapshotEncodeIdentity(t *testing.T) {
	s := populated(t)
	data := s.Snapshot(128, types.Digest{5})
	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(snap.Encode(), data) {
		t.Fatal("decode/re-encode is not the identity")
	}
}

// refStore is the table as it was kept before the dense layout: one map, in
// which a present key may hold a nil value (the wire codec decodes an empty
// value as nil). Its methods are that code, lock aside;
// TestSnapshotGoldenBytes holds every encoder to referenceSnapshot.
type refStore struct {
	records map[uint64][]byte
	applied uint64
}

func newRefStore(n uint64, recordSize int) *refStore {
	s := &refStore{records: make(map[uint64][]byte, n)}
	payload := make([]byte, recordSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := uint64(0); i < n; i++ {
		s.records[i] = payload
	}
	return s
}

func (s *refStore) apply(b *types.Batch) {
	for i := range b.Txns {
		if t := &b.Txns[i]; t.Op == types.OpWrite {
			s.records[t.Key] = t.Value
		}
		s.applied++
	}
}

func (s *refStore) restore(t *TableSnapshot) {
	records := make(map[uint64][]byte, len(t.Records))
	for k, v := range t.Records {
		records[k] = v
	}
	s.records = records
	s.applied = t.Applied
}

// referenceSnapshot is the sort-based encoder the dense layout replaced.
func (s *refStore) referenceSnapshot(height uint64, execHash types.Digest) []byte {
	keys := make([]uint64, 0, len(s.records))
	size := snapMinSize
	for k, v := range s.records {
		keys = append(keys, k)
		size += 8 + 4 + len(v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	out := make([]byte, 0, size)
	out = append(out, snapMagic...)
	out = binary.LittleEndian.AppendUint32(out, snapVersion)
	out = binary.LittleEndian.AppendUint64(out, height)
	out = append(out, execHash[:]...)
	out = binary.LittleEndian.AppendUint64(out, s.applied)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(keys)))
	for _, k := range keys {
		v := s.records[k]
		out = binary.LittleEndian.AppendUint64(out, k)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(v)))
		out = append(out, v...)
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, snapCRC))
}

// TestSnapshotGoldenBytes: Store.Snapshot, Freeze().Encode and
// TableSnapshot.Encode emit exactly the bytes of the sort-based encoder over
// a plain map, so WAL files and state chunks written by either layout stay
// interchangeable. The table mixes dense keys, sparse keys above the dense
// range (up to 1<<40), zero-length writes — a nil value, as the wire codec
// decodes one, must still make the key present — and a Restore from a
// snapshot that has sparse keys and lacks most dense ones.
func TestSnapshotGoldenBytes(t *testing.T) {
	const n = 64
	s, ref := NewStore(n, 8), newRefStore(n, 8)
	apply := func(b *types.Batch) {
		s.Apply(b)
		ref.apply(b)
	}
	check := func(stage string, height uint64) {
		t.Helper()
		exec := types.Digest{byte(height), 0xA5}
		want := ref.referenceSnapshot(height, exec)
		if got := s.Snapshot(height, exec); !bytes.Equal(got, want) {
			t.Fatalf("%s: Store.Snapshot differs from the reference encoder", stage)
		}
		if got := s.Freeze().Encode(height, exec); !bytes.Equal(got, want) {
			t.Fatalf("%s: Freeze().Encode differs from the reference encoder", stage)
		}
		snap, err := DecodeSnapshot(want)
		if err != nil {
			t.Fatalf("%s: reference bytes do not decode: %v", stage, err)
		}
		if got := snap.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("%s: TableSnapshot.Encode differs from the reference encoder", stage)
		}
	}
	empty := &types.Batch{Txns: []types.Transaction{
		{Op: types.OpWrite, Key: 9},                   // dense, nil value
		{Op: types.OpWrite, Key: n + 3},               // sparse, nil value
		{Op: types.OpWrite, Key: 11, Value: []byte{}}, // dense, empty non-nil value
	}}
	empty.ID = types.ComputeBatchID(empty.Txns)

	check("initial table", 1)
	apply(writeBatch(0, 5, n-1, 17, 5))
	apply(writeBatch(n, n+9, 1<<40, 1000))
	apply(empty)
	check("after dense, sparse and zero-length writes", 2)

	frozen, want := s.Freeze(), ref.referenceSnapshot(3, types.Digest{3})
	apply(writeBatch(0, 9, n+9, 1<<40))
	if !bytes.Equal(frozen.Encode(3, types.Digest{3}), want) {
		t.Fatal("writes after Freeze leaked into the frozen table")
	}

	src := &refStore{applied: 77, records: map[uint64][]byte{
		1: []byte("one"), 3: nil, n + 2: []byte("sparse"), 1 << 40: []byte("far"),
	}}
	snap, err := DecodeSnapshot(src.referenceSnapshot(4, types.Digest{4}))
	if err != nil {
		t.Fatal(err)
	}
	s.Restore(snap)
	ref.restore(snap)
	check("after restore", 5)
	if s.Read(0) != nil || s.Read(n) != nil {
		t.Fatal("keys the snapshot lacks survived the restore")
	}
	apply(writeBatch(2, 1<<40, n+2))
	apply(empty)
	check("after writes over the restored table", 6)
}

// TestSnapshotRejectsCorruption: every class of envelope damage is refused —
// no partial decode ever escapes.
func TestSnapshotRejectsCorruption(t *testing.T) {
	s := populated(t)
	good := s.Snapshot(64, types.Digest{3})

	mutate := func(name string, f func(b []byte) []byte) {
		b := append([]byte(nil), good...)
		if b = f(b); b == nil {
			return
		}
		if _, err := DecodeSnapshot(b); err == nil {
			t.Errorf("%s: corrupt snapshot decoded cleanly", name)
		}
	}
	mutate("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	mutate("bad version", func(b []byte) []byte { b[4] = 99; return b })
	mutate("flipped bit mid-record", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b })
	mutate("flipped CRC", func(b []byte) []byte { b[len(b)-1] ^= 1; return b })
	mutate("truncated", func(b []byte) []byte { return b[:len(b)-9] })
	mutate("trailing garbage", func(b []byte) []byte { return append(b, 0xAB) })
	mutate("empty", func(b []byte) []byte { return nil })

	if _, err := DecodeSnapshot(nil); err == nil {
		t.Error("nil input decoded cleanly")
	}
	if _, err := DecodeSnapshot([]byte("SPLT")); err == nil {
		t.Error("bare magic decoded cleanly")
	}
}

// TestSnapshotRejectsNonCanonical: a well-CRC'd envelope with out-of-order
// keys is refused, so encode(decode(x)) == x holds on everything accepted.
func TestSnapshotRejectsNonCanonical(t *testing.T) {
	s := NewStore(4, 4)
	b := &types.Batch{Txns: []types.Transaction{
		{Op: types.OpWrite, Key: 1, Value: []byte("aa")},
		{Op: types.OpWrite, Key: 2, Value: []byte("bb")},
	}}
	b.ID = types.ComputeBatchID(b.Txns)
	s.Apply(b)
	data := s.Snapshot(1, types.Digest{})

	// Swap the two records in place (same sizes) and re-seal the CRC: the
	// envelope is now internally consistent but non-canonical.
	rec := data[snapHeaderSize : len(data)-4]
	recLen := 8 + 4 + 2
	if len(rec) < 2*recLen {
		t.Fatalf("unexpected record section size %d", len(rec))
	}
	tmp := append([]byte(nil), rec[:recLen]...)
	copy(rec[:recLen], rec[recLen:2*recLen])
	copy(rec[recLen:2*recLen], tmp)
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(body, snapCRC))

	if _, err := DecodeSnapshot(data); err == nil {
		t.Fatal("out-of-order keys decoded cleanly")
	}
}

// TestRestoreReplacesStaleState: restoring over a diverged table discards
// every stale record, including keys the snapshot does not mention.
func TestRestoreReplacesStaleState(t *testing.T) {
	src := NewStore(10, 4)
	w := &types.Batch{Txns: []types.Transaction{{Op: types.OpWrite, Key: 2, Value: []byte("good")}}}
	w.ID = types.ComputeBatchID(w.Txns)
	src.Apply(w)
	snap, err := DecodeSnapshot(src.Snapshot(1, types.Digest{}))
	if err != nil {
		t.Fatal(err)
	}

	dst := NewStore(10, 4)
	stale := &types.Batch{Txns: []types.Transaction{
		{Op: types.OpWrite, Key: 2, Value: []byte("BAD!")},
		{Op: types.OpWrite, Key: 7, Value: []byte("BAD!")},
	}}
	stale.ID = types.ComputeBatchID(stale.Txns)
	dst.Apply(stale)
	dst.Restore(snap)

	if got := string(dst.Read(2)); got != "good" {
		t.Fatalf("key 2 after restore: %q", got)
	}
	if got := string(dst.Read(7)); got == "BAD!" {
		t.Fatal("stale write to key 7 survived the restore")
	}
	if dst.Fingerprint() != src.Fingerprint() {
		t.Fatal("restored fingerprint diverges")
	}
}

// TestFingerprintSeesColdKeys: the fingerprint covers the whole table, so a
// single cold-key divergence (a key never touched after restore) flips it.
func TestFingerprintSeesColdKeys(t *testing.T) {
	a := NewStore(100, 8)
	b := NewStore(100, 8)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical initial tables fingerprint differently")
	}
	w := &types.Batch{Txns: []types.Transaction{{Op: types.OpWrite, Key: 99, Value: []byte("x")}}}
	w.ID = types.ComputeBatchID(w.Txns)
	b.Apply(w)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("one-key divergence invisible to the fingerprint")
	}
}

// FuzzSnapshotDecode: DecodeSnapshot never panics, and every input it
// accepts re-encodes to the identical bytes (canonical-form oracle, the same
// discipline the wire codec fuzzer enforces).
func FuzzSnapshotDecode(f *testing.F) {
	s := NewStore(50, 8)
	s.Apply(writeBatch(append(spreadKeys(30, 17, 70), 1<<40)...))
	good := s.Snapshot(32, types.Digest{7})
	f.Add(good)
	f.Add(good[:len(good)-5])
	f.Add([]byte("SPLT"))
	f.Add([]byte{})
	empty := NewStore(0, 8)
	f.Add(empty.Snapshot(0, types.Digest{}))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(snap.Encode(), data) {
			t.Fatalf("accepted non-canonical encoding (%d bytes)", len(data))
		}
	})
}

// table100k is the benchmark's 100 000-record, 64-byte table after one batch
// of writes spread across it.
func table100k() *Store {
	s := NewStore(100000, 64)
	s.Apply(writeBatch(spreadKeys(100, 997, 100000)...))
	return s
}

var (
	snapSink   []byte
	frozenSink *Frozen
)

// BenchmarkSnapshot100k: encoding the whole table into an envelope — what a
// checkpoint cut paid before encoding was deferred to the WAL write or a
// state-transfer serve.
func BenchmarkSnapshot100k(b *testing.B) {
	s := table100k()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapSink = s.Snapshot(128, types.Digest{1})
	}
}

// BenchmarkFreeze100k: what a checkpoint cut pays now, a copy of the
// table's slice headers.
func BenchmarkFreeze100k(b *testing.B) {
	s := table100k()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frozenSink = s.Freeze()
	}
}
