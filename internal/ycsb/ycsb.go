// Package ycsb provides the workload substrate of the evaluation (§6): a
// YCSB-style record table (500k active records, 90% write transactions) with
// a Zipfian key chooser, and a deterministic execution engine producing
// result digests that correct replicas can compare.
package ycsb

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"sync"

	"spotless/internal/types"
)

// DefaultRecords matches the paper's table size (§6).
const DefaultRecords = 500000

// Store is the replicated YCSB table. It is safe for concurrent readers
// with one writer (the execution loop), matching ResilientDB's sequential
// execution model.
//
// Keys below the size the table was built with live in a dense slice indexed
// by key, so the table is always in ascending key order and a checkpoint cut
// never sorts; keys at or above it live in a sparse map. A nil dense entry
// means the key is absent. Values are never written in place — a write
// replaces the slice header — so a Frozen copy of the headers stays valid
// while the table moves on.
type Store struct {
	mu      sync.RWMutex
	dense   [][]byte          // keys [0, len(dense)); nil = absent
	sparse  map[uint64][]byte // keys ≥ len(dense)
	applied uint64            // transactions executed
}

// emptyValue stands in for a zero-length value in the dense slice, where nil
// already means "absent": the wire codec decodes an empty value as nil, and
// writing it must still make the key present.
var emptyValue = []byte{}

// NewStore initializes a table with n records holding deterministic
// payloads, as the paper initializes each replica with an identical copy.
func NewStore(n uint64, recordSize int) *Store {
	s := &Store{dense: make([][]byte, n)}
	payload := make([]byte, recordSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := range s.dense {
		s.dense[i] = payload
	}
	return s
}

// get returns the value at key (nil if absent). Callers hold s.mu.
func (s *Store) get(key uint64) []byte {
	if key < uint64(len(s.dense)) {
		return s.dense[key]
	}
	return s.sparse[key]
}

// put makes key present with value v. Callers hold s.mu for writing.
func (s *Store) put(key uint64, v []byte) {
	if key < uint64(len(s.dense)) {
		if v == nil {
			v = emptyValue
		}
		s.dense[key] = v
		return
	}
	if s.sparse == nil {
		s.sparse = make(map[uint64][]byte)
	}
	s.sparse[key] = v
}

// Read returns the value of a record (nil if absent).
func (s *Store) Read(key uint64) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.get(key)
}

// Applied returns the number of executed transactions.
func (s *Store) Applied() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.applied
}

// Apply executes a batch sequentially and returns the digest of the
// results, which all correct replicas reproduce identically (the client
// compares f+1 Informs, §5).
//
// The digest covers the batch's writes (key and value) — fully determined
// by the batch content, so a replica that rejoined via checkpoint state
// transfer and replays the post-checkpoint batches reproduces it exactly.
// Read values are executed but not folded in: they can depend on
// pre-checkpoint writes a rejoiner only holds once the checkpoint's
// execution snapshot is installed (shipped inside state chunks and
// restored from the WAL; see docs/ARCHITECTURE.md), and attesting them
// would make checkpoint attestations depend on when each replica's
// snapshot arrived rather than on the agreed batch sequence.
func (s *Store) Apply(b *types.Batch) types.Digest {
	if b == nil || b.NoOp {
		return types.Digest{}
	}
	h := sha256.New()
	var kb [8]byte
	s.mu.Lock()
	for i := range b.Txns {
		t := &b.Txns[i]
		switch t.Op {
		case types.OpWrite:
			s.put(t.Key, t.Value)
			binary.LittleEndian.PutUint64(kb[:], t.Key)
			h.Write(kb[:])
			h.Write(t.Value)
		case types.OpRead:
			_ = s.get(t.Key) // served locally; not attested (see above)
		}
		s.applied++
	}
	s.mu.Unlock()
	var out types.Digest
	h.Sum(out[:0])
	return out
}

// Zipf generates keys with the YCSB Zipfian distribution (constant 0.99 by
// default), the access pattern of the Blockbench macro benchmark (§6).
type Zipf struct {
	rng *rand.Rand
	z   *rand.Zipf
	n   uint64
}

// NewZipf creates a Zipfian chooser over [0, n) with exponent s > 1.
func NewZipf(seed int64, n uint64, s float64) *Zipf {
	if s <= 1 {
		s = 1.01
	}
	rng := rand.New(rand.NewSource(seed))
	return &Zipf{rng: rng, z: rand.NewZipf(rng, s, 1, n-1), n: n}
}

// Next returns the next key.
func (z *Zipf) Next() uint64 { return z.z.Uint64() }

// Theta converts the YCSB zipfian-constant θ into the exponent s used by
// math/rand (s = 1/(1-θ) approximates the YCSB skew for θ < 1).
func Theta(theta float64) float64 {
	if theta >= 1 {
		return math.Inf(1)
	}
	return 1 / (1 - theta)
}

// Workload ties the pieces together: a transaction generator with the
// paper's operation mix.
type Workload struct {
	WriteRatio float64
	ValueSize  int
	keys       *Zipf
	rng        *rand.Rand
	client     types.NodeID
	seq        uint64
}

// NewWorkload creates the §6 workload: 90% writes over n records.
func NewWorkload(seed int64, client types.NodeID, records uint64, valueSize int) *Workload {
	return &Workload{
		WriteRatio: 0.9,
		ValueSize:  valueSize,
		keys:       NewZipf(seed, records, Theta(0.99)),
		rng:        rand.New(rand.NewSource(seed ^ 0x5f5f)),
		client:     client,
	}
}

// NextTxn generates one transaction.
func (w *Workload) NextTxn() types.Transaction {
	w.seq++
	t := types.Transaction{Client: w.client, Seq: w.seq, Key: w.keys.Next()}
	if w.rng.Float64() < w.WriteRatio {
		t.Op = types.OpWrite
		t.Value = make([]byte, w.ValueSize)
	} else {
		t.Op = types.OpRead
	}
	return t
}

// NextBatch generates a batch of size txns.
func (w *Workload) NextBatch(size int) *types.Batch {
	txns := make([]types.Transaction, size)
	for i := range txns {
		txns[i] = w.NextTxn()
	}
	return &types.Batch{ID: types.ComputeBatchID(txns), Txns: txns}
}
