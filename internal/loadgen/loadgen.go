// Package loadgen provides the closed-loop client model of the evaluation
// (§5, §6.3): batch sources feeding the proposing primaries, and a collector
// that plays the aggregate client — awaiting f+1 matching Informs per batch,
// recording latency, throughput, and timelines.
package loadgen

import (
	"math/rand"
	"sort"
	"time"

	"spotless/internal/protocol"
	"spotless/internal/types"
)

// Workload parameterizes generated transactions (YCSB-style, §6: 90% writes
// over a 500k-record table).
type Workload struct {
	BatchSize  int    // transactions per batch (paper default 100)
	TxnValueSz int    // written payload bytes per transaction
	Records    uint64 // key space (paper: 500k)
	Seed       int64
}

// writeRatio is the fraction of write transactions (paper: 0.9).
const writeRatio = 0.9

// DefaultWorkload mirrors §6's workload at the given batch size.
func DefaultWorkload(batchSize int) Workload {
	return Workload{BatchSize: batchSize, TxnValueSz: 33, Records: 500000, Seed: 7}
}

type batchMeta struct {
	instance  int32
	submitted time.Duration
	txns      int
}

// Source is a closed-loop batch source: every instance has a budget of
// `limit` outstanding batches; a fresh batch is queued the moment a previous
// one completes (f+1 Informs), emulating the paper's "client batches per
// primary" load knob (Figure 10).
type Source struct {
	wl      Workload
	m       int
	limit   int
	queues  [][]*types.Batch
	meta    map[types.Digest]*batchMeta
	rng     *rand.Rand
	nextSeq uint64
	// Issued counts batches handed to primaries (testing).
	Issued uint64
}

// NewSource creates a source for m instances with `limit` outstanding
// batches per instance, pre-filled at time zero.
func NewSource(m, limit int, wl Workload) *Source {
	s := &Source{
		wl:     wl,
		m:      m,
		limit:  limit,
		queues: make([][]*types.Batch, m),
		meta:   make(map[types.Digest]*batchMeta),
		rng:    rand.New(rand.NewSource(wl.Seed)),
	}
	for i := 0; i < m; i++ {
		for j := 0; j < limit; j++ {
			s.enqueue(int32(i), 0)
		}
	}
	return s
}

func (s *Source) enqueue(instance int32, now time.Duration) {
	txns := make([]types.Transaction, s.wl.BatchSize)
	for i := range txns {
		op := OpForRatio(s.rng.Float64(), writeRatio)
		var val []byte
		if op == types.OpWrite {
			val = make([]byte, s.wl.TxnValueSz)
		}
		txns[i] = types.Transaction{
			Client: types.ClientIDBase + types.NodeID(instance),
			Seq:    s.nextSeq,
			Op:     op,
			Key:    uint64(s.rng.Int63()) % s.wl.Records,
			Value:  val,
		}
		s.nextSeq++
	}
	b := &types.Batch{ID: types.ComputeBatchID(txns), Txns: txns, Submitted: now}
	s.queues[instance] = append(s.queues[instance], b)
	s.meta[b.ID] = &batchMeta{instance: instance, submitted: now, txns: len(txns)}
}

// OpForRatio maps a uniform sample to a YCSB operation.
func OpForRatio(u, writeRatio float64) byte {
	if u < writeRatio {
		return types.OpWrite
	}
	return types.OpRead
}

// Next implements simnet.BatchSource.
func (s *Source) Next(instance int32, now time.Duration) *types.Batch {
	if int(instance) >= s.m || len(s.queues[instance]) == 0 {
		return nil
	}
	b := s.queues[instance][0]
	s.queues[instance] = s.queues[instance][1:]
	s.Issued++
	return b
}

// release returns the credit of a completed batch, producing a fresh one.
func (s *Source) release(id types.Digest, now time.Duration) (meta *batchMeta, ok bool) {
	m, ok := s.meta[id]
	if !ok {
		return nil, false
	}
	delete(s.meta, id)
	s.enqueue(m.instance, now)
	return m, true
}

// BatchMeta is the completion record of a released batch, for harnesses
// that drive the closed loop themselves (the runtime TCP benchmark).
type BatchMeta struct {
	Instance  int32
	Submitted time.Duration
	Txns      int
}

// Release completes one batch and replenishes its instance's credit — the
// exported counterpart of the Collector's internal step. Not safe for
// concurrent use; callers serialize (the Collector runs on the client
// node's event loop, the runtime bench under its client mutex).
func (s *Source) Release(id types.Digest, now time.Duration) (BatchMeta, bool) {
	m, ok := s.release(id, now)
	if !ok {
		return BatchMeta{}, false
	}
	return BatchMeta{Instance: m.instance, Submitted: m.submitted, Txns: m.txns}, true
}

// TimelinePoint is one bucket of the throughput timeline (Figure 12).
type TimelinePoint struct {
	At   time.Duration
	Txns uint64
}

// Collector is the aggregate client: it runs as the simulator's client node,
// counts f+1 matching Informs per batch, and accumulates the metrics the
// figures report.
type Collector struct {
	ctx    protocol.Context
	src    *Source
	f      int
	bucket time.Duration

	informs map[types.Digest]map[types.NodeID]bool

	MeasureStart time.Duration
	MeasureEnd   time.Duration

	TxnsDone    uint64 // completed txns inside the measurement window
	BatchesDone uint64
	latencies   []time.Duration
	timeline    map[int64]uint64
}

// NewCollector builds the client collector. bucket > 0 enables timeline
// accumulation.
func NewCollector(ctx protocol.Context, src *Source, f int, bucket time.Duration) *Collector {
	return &Collector{
		ctx:      ctx,
		src:      src,
		f:        f,
		bucket:   bucket,
		informs:  make(map[types.Digest]map[types.NodeID]bool),
		timeline: make(map[int64]uint64),
	}
}

// Start implements protocol.Protocol.
func (c *Collector) Start() {}

// HandleTimer implements protocol.Protocol.
func (c *Collector) HandleTimer(protocol.TimerTag) {}

// HandleMessage implements protocol.Protocol: counts Informs.
func (c *Collector) HandleMessage(from types.NodeID, msg types.Message) {
	inf, ok := msg.(*types.Inform)
	if !ok {
		return
	}
	set := c.informs[inf.BatchID]
	if set == nil {
		set = make(map[types.NodeID]bool, c.f+1)
		c.informs[inf.BatchID] = set
	}
	if set[inf.Replica] {
		return
	}
	set[inf.Replica] = true
	if len(set) != c.f+1 {
		return
	}
	// f+1 matching Informs: the batch is complete (§5).
	now := c.ctx.Now()
	meta, ok := c.src.release(inf.BatchID, now)
	delete(c.informs, inf.BatchID)
	if !ok {
		return
	}
	if now >= c.MeasureStart && (c.MeasureEnd == 0 || now < c.MeasureEnd) {
		c.TxnsDone += uint64(meta.txns)
		c.BatchesDone++
		c.latencies = append(c.latencies, now-meta.submitted)
	}
	if c.bucket > 0 {
		c.timeline[int64(now/c.bucket)] += uint64(meta.txns)
	}
}

// Throughput returns completed txn/s over the measurement window.
func (c *Collector) Throughput() float64 {
	win := c.MeasureEnd - c.MeasureStart
	if win <= 0 {
		return 0
	}
	return float64(c.TxnsDone) / win.Seconds()
}

// Latency returns (avg, p50, p99) over the measurement window.
func (c *Collector) Latency() (avg, p50, p99 time.Duration) {
	if len(c.latencies) == 0 {
		return 0, 0, 0
	}
	ls := append([]time.Duration(nil), c.latencies...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	var sum time.Duration
	for _, l := range ls {
		sum += l
	}
	avg = sum / time.Duration(len(ls))
	p50 = ls[len(ls)/2]
	p99 = ls[(len(ls)*99)/100]
	return avg, p50, p99
}

// Timeline returns the throughput timeline in bucket order.
func (c *Collector) Timeline() []TimelinePoint {
	if c.bucket == 0 {
		return nil
	}
	keys := make([]int64, 0, len(c.timeline))
	for k := range c.timeline {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]TimelinePoint, len(keys))
	for i, k := range keys {
		out[i] = TimelinePoint{At: time.Duration(k) * c.bucket, Txns: c.timeline[k]}
	}
	return out
}
