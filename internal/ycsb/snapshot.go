package ycsb

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sort"

	"spotless/internal/types"
)

// This file implements durable execution snapshots: a deterministic,
// CRC32C-enveloped encoding of the whole table, bound to the checkpoint cut
// it was taken at. The envelope keys the snapshot by (height, exec hash) —
// the same rolling execution hash the checkpoint certificate attests through
// its state-hash preimage — so a restart (or a state-transfer install) can
// prove the restored table is exactly the one the quorum hashed before
// serving a single read from it.
//
// Envelope layout (all integers little-endian):
//
//	[0:4]    magic "SPLT"
//	[4:8]    version (1)
//	[8:16]   height   — the checkpoint cut (globally delivered batches)
//	[16:48]  execHash — rolling execution hash at the cut
//	[48:56]  applied  — executed-transaction counter at the cut
//	[56:64]  record count
//	[64:]    records: (key u64, valueLen u32, value bytes), keys strictly
//	         ascending — the canonical order, so encode(decode(x)) == x
//	[len-4:] CRC32C (Castagnoli) over everything before it
//
// internal/wal mirrors the header layout (wal/snapshot.go) to select and
// verify snapshot files at recovery without importing this package;
// TestWalEnvelopeCompat pins the two against each other.

// Snapshot envelope framing constants. Keep in sync with internal/wal's
// mirror (snapHeaderSize and friends).
const (
	snapMagic      = "SPLT"
	snapVersion    = 1
	snapHeaderSize = 4 + 4 + 8 + 32 + 8 + 8
	snapMinSize    = snapHeaderSize + 4
)

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrSnapshotCorrupt reports a snapshot blob that fails envelope validation:
// bad magic or version, truncated, CRC mismatch, forged lengths, or a
// non-canonical record order.
var ErrSnapshotCorrupt = errors.New("ycsb: corrupt snapshot")

// TableSnapshot is a decoded execution snapshot: the table content at a
// checkpoint cut plus the binding that ties it to the attested state.
type TableSnapshot struct {
	Height   uint64       // checkpoint cut the table was captured at
	ExecHash types.Digest // rolling execution hash at the cut
	Applied  uint64       // executed-transaction counter at the cut
	Records  map[uint64][]byte
}

// Frozen is the table at one instant, kept for encoding later: a copy of the
// record slice headers plus the applied counter. Values are shared with the
// live table, which replaces a value on every write and never modifies one
// in place, so the copy stays exact while execution moves on. Freezing costs
// O(n) header copies and no encoding.
type Frozen struct {
	applied    uint64
	dense      [][]byte // dense[k] is key k's value; nil = absent
	sparseKeys []uint64 // strictly ascending, each ≥ len(dense)
	sparseVals [][]byte
}

// Freeze captures the current table. The caller takes it at the checkpoint
// cut — on the ordering stage, where the table reflects exactly the first
// height globally delivered batches — and calls Encode only once the bytes
// are needed (the WAL write, or a state-transfer serve).
func (s *Store) Freeze() *Frozen {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f := s.frozenLocked()
	f.dense = append([][]byte(nil), s.dense...)
	return f
}

// frozenLocked returns the table in key order without copying the dense
// slice. Callers hold s.mu and either copy it (Freeze) or are done with it
// before they release the lock (Snapshot).
func (s *Store) frozenLocked() *Frozen {
	keys, vals := sortedRecords(s.sparse)
	return &Frozen{applied: s.applied, dense: s.dense, sparseKeys: keys, sparseVals: vals}
}

// sortedRecords lists a record map in ascending key order.
func sortedRecords(m map[uint64][]byte) ([]uint64, [][]byte) {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	return keys, vals
}

// Snapshot encodes the current table into a snapshot envelope bound to
// (height, execHash): Freeze and Encode in one step, without the copy.
// Encoding is deterministic: records are emitted in ascending key order, so
// correct replicas capturing the same cut produce identical bytes.
func (s *Store) Snapshot(height uint64, execHash types.Digest) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.frozenLocked().Encode(height, execHash)
}

// Encode emits the snapshot envelope of the frozen table bound to (height,
// execHash). It is the one encoder behind Store.Snapshot and
// TableSnapshot.Encode: dense keys come out by index and the sparse keys,
// all above them, in sorted order, so records ascend without a sort.
func (f *Frozen) Encode(height uint64, execHash types.Digest) []byte {
	count, size := len(f.sparseKeys), snapMinSize
	for _, v := range f.dense {
		if v != nil {
			count++
			size += 8 + 4 + len(v)
		}
	}
	for _, v := range f.sparseVals {
		size += 8 + 4 + len(v)
	}

	out := make([]byte, 0, size)
	out = append(out, snapMagic...)
	out = binary.LittleEndian.AppendUint32(out, snapVersion)
	out = binary.LittleEndian.AppendUint64(out, height)
	out = append(out, execHash[:]...)
	out = binary.LittleEndian.AppendUint64(out, f.applied)
	out = binary.LittleEndian.AppendUint64(out, uint64(count))
	for k, v := range f.dense {
		if v != nil {
			out = appendRecord(out, uint64(k), v)
		}
	}
	for i, k := range f.sparseKeys {
		out = appendRecord(out, k, f.sparseVals[i])
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, snapCRC))
}

func appendRecord(out []byte, key uint64, v []byte) []byte {
	out = binary.LittleEndian.AppendUint64(out, key)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(v)))
	return append(out, v...)
}

// DecodeSnapshot validates a snapshot envelope end to end — magic, version,
// CRC over the full blob, record framing, canonical key order, exact length
// consumption — and returns the decoded snapshot. It never installs anything
// and never panics on adversarial input (FuzzSnapshotDecode enforces both);
// callers check the returned Height/ExecHash against the attested checkpoint
// before calling Restore.
func DecodeSnapshot(data []byte) (*TableSnapshot, error) {
	if len(data) < snapMinSize || string(data[:4]) != snapMagic {
		return nil, ErrSnapshotCorrupt
	}
	if binary.LittleEndian.Uint32(data[4:]) != snapVersion {
		return nil, ErrSnapshotCorrupt
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, snapCRC) != binary.LittleEndian.Uint32(tail) {
		return nil, ErrSnapshotCorrupt
	}
	snap := &TableSnapshot{
		Height:  binary.LittleEndian.Uint64(data[8:]),
		Applied: binary.LittleEndian.Uint64(data[48:]),
		Records: make(map[uint64][]byte),
	}
	copy(snap.ExecHash[:], data[16:48])
	count := binary.LittleEndian.Uint64(data[56:64])
	rest := body[snapHeaderSize:]
	// Each record is at least 12 bytes, so a forged count cannot force a
	// large allocation past this bound.
	if count > uint64(len(rest))/12 {
		return nil, ErrSnapshotCorrupt
	}
	var prev uint64
	for i := uint64(0); i < count; i++ {
		if len(rest) < 12 {
			return nil, ErrSnapshotCorrupt
		}
		key := binary.LittleEndian.Uint64(rest)
		vlen := binary.LittleEndian.Uint32(rest[8:])
		rest = rest[12:]
		if uint64(len(rest)) < uint64(vlen) {
			return nil, ErrSnapshotCorrupt
		}
		if i > 0 && key <= prev {
			return nil, ErrSnapshotCorrupt // non-canonical: keys must ascend
		}
		prev = key
		val := make([]byte, vlen)
		copy(val, rest[:vlen])
		snap.Records[key] = val
		rest = rest[vlen:]
	}
	if len(rest) != 0 {
		return nil, ErrSnapshotCorrupt // trailing bytes
	}
	return snap, nil
}

// Encode re-emits the canonical envelope for a decoded snapshot. For any
// blob DecodeSnapshot accepts, snap.Encode() reproduces it byte-for-byte
// (the decode/re-encode identity FuzzSnapshotDecode checks).
func (t *TableSnapshot) Encode() []byte {
	keys, vals := sortedRecords(t.Records)
	f := &Frozen{applied: t.Applied, sparseKeys: keys, sparseVals: vals}
	return f.Encode(t.Height, t.ExecHash)
}

// Restore replaces the table with a decoded snapshot: the records become the
// table content and the executed-transaction counter rewinds to the cut.
// The table keeps the dense range it was built with; keys the snapshot does
// not name are absent afterwards. Callers must have verified the snapshot's
// (Height, ExecHash) binding against the attested checkpoint first — Restore
// itself trusts its input.
func (s *Store) Restore(t *TableSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dense = make([][]byte, len(s.dense))
	s.sparse = nil
	for k, v := range t.Records {
		s.put(k, v)
	}
	s.applied = t.Applied
}

// Fingerprint hashes the table content deterministically (sorted keys,
// key+value). Two stores holding byte-identical tables — cold keys included —
// produce equal fingerprints; the crash-chaos soak compares restarted
// replicas against a never-crashed control with it.
func (s *Store) Fingerprint() types.Digest {
	data := s.Snapshot(0, types.Digest{})
	// The envelope binds (height, execHash, applied); zero them out of the
	// comparison by hashing only the record section.
	return sha256.Sum256(data[snapHeaderSize : len(data)-4])
}

// Dump copies the table: key → value. Drills use it to capture a replica's
// state at an instant (e.g. the healthy control at kill time) and diff it
// later; values are copied, so the dump is stable under further writes.
func (s *Store) Dump() map[uint64][]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[uint64][]byte, len(s.dense)+len(s.sparse))
	for k, v := range s.dense {
		if v != nil {
			out[uint64(k)] = append([]byte(nil), v...)
		}
	}
	for k, v := range s.sparse {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

// SnapshotBinding reads just the envelope binding (height, exec hash) after
// full validation — what a caller needs to decide whether a blob matches an
// attested checkpoint without materializing the table.
func SnapshotBinding(data []byte) (height uint64, execHash types.Digest, err error) {
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return 0, types.Digest{}, err
	}
	return snap.Height, snap.ExecHash, nil
}
