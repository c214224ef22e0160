package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spotless/internal/core"
	"spotless/internal/crypto"
	"spotless/internal/protocol"
	"spotless/internal/runtime"
	"spotless/internal/types"
	"spotless/internal/wal"
)

// span is one timed interval at a layer boundary. Spans of one batch share
// its digest (the first 8 bytes); ids and parents are assigned when the
// trace is written out.
type span struct {
	name       string
	node       int
	batch      uint64
	start, end time.Duration
}

func batchKey(id types.Digest) uint64 { return binary.BigEndian.Uint64(id[:8]) }

// tracer collects spans and boundary counts from the decorators below, all
// of which live in this directory: the program under test carries no stamps
// of its own yet. Everything is kept in memory until the run ends. The
// decorators stay installed for the whole traced run; recording is switched
// with enable so the same cluster gives an untraced reference interval.
type tracer struct {
	now     func() time.Duration
	enabled atomic.Bool

	mu    sync.Mutex
	spans []span

	signs, verifies, macs atomic.Uint64
	cryptoNs              atomic.Int64

	frames, coreMsgs, proposes, syncs, asks atomic.Uint64

	fsyncs, walBytes atomic.Uint64
	walNs            atomic.Int64

	sendUs, executeUs, fsyncUs, snapshotMs, snapWriteMs samples
}

func newTracer(now func() time.Duration) *tracer { return &tracer{now: now} }

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// samples is a mutex-guarded list of measurements for percentiles.
type samples struct {
	mu sync.Mutex
	xs []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

func (s *samples) q(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(s.xs, q)
}

// noteSend counts one message handed to the wire with its fan-out, by the
// layer that produced it, and stamps the first availability certificate of
// a batch.
func (t *tracer) noteSend(c *client, msg types.Message, fanout int) {
	n := uint64(fanout)
	t.frames.Add(n)
	switch m := msg.(type) {
	case *types.Propose:
		t.proposes.Add(n)
		t.coreMsgs.Add(n)
	case *types.Sync:
		t.syncs.Add(n)
		t.coreMsgs.Add(n)
	case *types.Ask:
		t.asks.Add(n)
		t.coreMsgs.Add(n)
	case *types.Checkpoint, *types.FetchState, *types.StateChunk:
		t.coreMsgs.Add(n)
	case *types.BatchCert:
		c.stamp(m.BatchID, func(o *op, now time.Duration) {
			if o.certified == 0 {
				o.certified = now
			}
		})
	case *types.Inform:
		// Under runtime.NewCluster the executor cannot be wrapped, so the
		// first Inform on the wire stands in for the end of execution.
		c.stamp(m.BatchID, func(o *op, now time.Duration) {
			if o.execEnd == 0 {
				o.execEnd = now
			}
		})
	}
}

// --- runtime.Transport / runtime.Broadcaster ---

type tracedTransport struct {
	inner interface {
		runtime.Transport
		runtime.Broadcaster
	}
	t *tracer
	c *client
}

func (tt *tracedTransport) Register(id types.NodeID, recv func(types.NodeID, types.Message)) {
	tt.inner.Register(id, recv)
}

func (tt *tracedTransport) Send(from, to types.NodeID, msg types.Message) {
	if !tt.t.on() {
		tt.inner.Send(from, to, msg)
		return
	}
	start := time.Now()
	tt.inner.Send(from, to, msg)
	tt.t.sendUs.add(us(time.Since(start)))
	tt.t.noteSend(tt.c, msg, 1)
}

func (tt *tracedTransport) Bcast(from types.NodeID, to []types.NodeID, msg types.Message) {
	if !tt.t.on() {
		tt.inner.Bcast(from, to, msg)
		return
	}
	start := time.Now()
	tt.inner.Bcast(from, to, msg)
	tt.t.sendUs.add(us(time.Since(start)))
	tt.t.noteSend(tt.c, msg, len(to))
}

// --- crypto.Provider ---

type tracedCrypto struct {
	crypto.Provider
	t *tracer
}

func (tc tracedCrypto) timed(n *atomic.Uint64, start time.Time) {
	n.Add(1)
	tc.t.cryptoNs.Add(int64(time.Since(start)))
}

func (tc tracedCrypto) Sign(msg []byte) types.Signature {
	if !tc.t.on() {
		return tc.Provider.Sign(msg)
	}
	defer tc.timed(&tc.t.signs, time.Now())
	return tc.Provider.Sign(msg)
}

func (tc tracedCrypto) Verify(sig types.Signature, msg []byte) error {
	if !tc.t.on() {
		return tc.Provider.Verify(sig, msg)
	}
	defer tc.timed(&tc.t.verifies, time.Now())
	return tc.Provider.Verify(sig, msg)
}

func (tc tracedCrypto) MAC(to types.NodeID, msg []byte) []byte {
	if !tc.t.on() {
		return tc.Provider.MAC(to, msg)
	}
	defer tc.timed(&tc.t.macs, time.Now())
	return tc.Provider.MAC(to, msg)
}

func (tc tracedCrypto) VerifyMAC(from types.NodeID, msg, mac []byte) error {
	if !tc.t.on() {
		return tc.Provider.VerifyMAC(from, msg, mac)
	}
	defer tc.timed(&tc.t.macs, time.Now())
	return tc.Provider.VerifyMAC(from, msg, mac)
}

// --- runtime.Executor and core.StateHost ---

// noteSnapshot times the two checkpoint calls that touch the table and the
// disk: StateDigest captures the execution snapshot, PersistCheckpoint
// writes manifest and snapshot.
func (t *tracer) noteSnapshot(node int, name string, into *samples, start time.Duration) {
	end := t.now()
	into.add(ms(end - start))
	t.add(span{name: name, node: node, start: start, end: end})
}

// tracedExecutor wraps the replica executor of the assemblies this
// directory builds itself. Embedding keeps every other core.StateHost method.
type tracedExecutor struct {
	*runtime.ReplicaExecutor
	t    *tracer
	c    *client
	node int
}

func (te *tracedExecutor) Execute(cm types.Commit) {
	if !te.t.on() || cm.Batch == nil {
		te.ReplicaExecutor.Execute(cm)
		return
	}
	id := cm.Batch.ID
	start := te.t.now()
	te.c.stamp(id, func(o *op, _ time.Duration) {
		if o.execStart == 0 {
			o.execStart = start
		}
	})
	te.ReplicaExecutor.Execute(cm)
	end := te.t.now()
	te.c.stamp(id, func(o *op, _ time.Duration) {
		if o.execEnd == 0 || end < o.execEnd {
			o.execEnd = end
		}
	})
	te.t.executeUs.add(us(end - start))
	te.t.add(span{name: "runtime.execute", node: te.node, batch: batchKey(id), start: start, end: end})
}

func (te *tracedExecutor) StateDigest(height uint64, execHash types.Digest) types.Digest {
	if !te.t.on() {
		return te.ReplicaExecutor.StateDigest(height, execHash)
	}
	defer te.t.noteSnapshot(te.node, "ycsb.snapshot", &te.t.snapshotMs, te.t.now())
	return te.ReplicaExecutor.StateDigest(height, execHash)
}

// tracedHost is the same pair of timings for runtime.NewCluster, whose
// executor is built inside the program: ClusterConfig.Tune swaps the host.
type tracedHost struct {
	core.StateHost
	t    *tracer
	node int
}

func (th tracedHost) StateDigest(height uint64, execHash types.Digest) types.Digest {
	if !th.t.on() {
		return th.StateHost.StateDigest(height, execHash)
	}
	defer th.t.noteSnapshot(th.node, "ycsb.snapshot", &th.t.snapshotMs, th.t.now())
	return th.StateHost.StateDigest(height, execHash)
}

func (th tracedHost) PersistCheckpoint(cert types.CheckpointCert, execHash, resume types.Digest, anchors []types.Anchor) {
	if !th.t.on() {
		th.StateHost.PersistCheckpoint(cert, execHash, resume, anchors)
		return
	}
	defer th.t.noteSnapshot(th.node, "wal.snapshot_write", &th.t.snapWriteMs, th.t.now())
	th.StateHost.PersistCheckpoint(cert, execHash, resume, anchors)
}

// --- wal.FS / wal.File ---

type tracedFS struct {
	wal.FS
	t    *tracer
	node int
}

func (f tracedFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return tracedFile{file, f.t, f.node}, nil
}

type tracedFile struct {
	wal.File
	t    *tracer
	node int
}

func (f tracedFile) Write(p []byte) (int, error) {
	if !f.t.on() {
		return f.File.Write(p)
	}
	start := time.Now()
	n, err := f.File.Write(p)
	f.t.walNs.Add(int64(time.Since(start)))
	f.t.walBytes.Add(uint64(n))
	return n, err
}

func (f tracedFile) Sync() error {
	if !f.t.on() {
		return f.File.Sync()
	}
	start := f.t.now()
	err := f.File.Sync()
	end := f.t.now()
	f.t.fsyncs.Add(1)
	f.t.walNs.Add(int64(end - start))
	f.t.fsyncUs.add(us(end - start))
	f.t.add(span{name: "wal.fsync", node: f.node, start: start, end: end})
	return err
}

// --- protocol.Context (simulator) ---

// tracedContext counts what a simulated replica sends, by kind: the
// simulator has no transport to wrap.
type tracedContext struct {
	protocol.Context
	t *tracer
	c *client
	n int
}

func (tc tracedContext) Send(to types.NodeID, msg types.Message) {
	tc.Context.Send(to, msg)
	if tc.t.on() {
		tc.t.noteSend(tc.c, msg, 1)
	}
}

func (tc tracedContext) Broadcast(msg types.Message) {
	tc.Context.Broadcast(msg)
	if tc.t.on() {
		tc.t.noteSend(tc.c, msg, tc.n-1)
	}
}

// --- writing the trace out ---

// stageSpans turns the stamps of one acknowledged batch into its root span
// and the five stage spans beneath it.
func stageSpans(o *op) []span {
	k := batchKey(o.id)
	out := []span{{name: "batch", node: -1, batch: k, start: o.due, end: o.acked}}
	stage := func(name string, from, to time.Duration) {
		if from != 0 && to >= from {
			out = append(out, span{name: name, node: -1, batch: k, start: from, end: to})
		}
	}
	if o.pulled != 0 {
		out = append(out, span{name: "queue", node: -1, batch: k, start: o.due, end: o.pulled})
	}
	stage("certify", o.pulled, o.certified)
	if o.execStart != 0 {
		stage("order", o.pulled, o.execStart)
		stage("execute", o.execStart, o.execEnd)
	} else {
		stage("order", o.pulled, o.execEnd)
	}
	stage("reply", o.execEnd, o.acked)
	return out
}

type spanJSON struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Node   int     `json:"node"`
	Batch  string  `json:"batch,omitempty"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Self   float64 `json:"self_ms"`
}

// writeTrace resolves parents, computes self times and writes one JSON
// object per span. A batch's root span parents everything that carries its
// digest; a span without a digest (fsync, snapshot) hangs under the
// runtime.execute span of the same node that encloses it, if any. Self time
// is a span's duration minus the part of it its children cover.
func (t *tracer) writeTrace(path string, acked []*op) (map[string][2]float64, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	for _, o := range acked {
		spans = append(spans, stageSpans(o)...)
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	parent := make([]int, len(spans)) // index+1, 0 = none
	roots := make(map[uint64]int)
	for i, s := range spans {
		if s.name == "batch" {
			roots[s.batch] = i + 1
		}
	}
	open := make(map[int][]int) // node → enclosing execute spans seen so far
	for i, s := range spans {
		switch {
		case s.name == "batch":
		case s.batch != 0:
			parent[i] = roots[s.batch]
			if s.name == "runtime.execute" {
				open[s.node] = append(open[s.node], i)
			}
		default:
			for _, j := range open[s.node] {
				if spans[j].start <= s.start && s.end <= spans[j].end {
					parent[i] = j + 1
				}
			}
		}
	}
	// The five stages overlap by definition (certify runs inside order), so
	// a root's covered time is the union of its children's intervals.
	children := make(map[int][]int)
	for i, p := range parent {
		if p != 0 {
			children[p-1] = append(children[p-1], i)
		}
	}
	self := func(i int) time.Duration {
		s := spans[i]
		covered, upto := time.Duration(0), s.start
		for _, j := range children[i] { // already in start order
			a, b := spans[j].start, spans[j].end
			if a < upto {
				a = upto
			}
			if b > s.end {
				b = s.end
			}
			if b > a {
				covered += b - a
				upto = b
			}
		}
		return s.end - s.start - covered
	}

	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	byName := make(map[string][]float64)
	selfByName := make(map[string][]float64)
	for i, s := range spans {
		sj := spanJSON{ID: i + 1, Parent: parent[i], Name: s.name, Node: s.node,
			Start: ms(s.start), End: ms(s.end), Self: ms(self(i))}
		if s.batch != 0 {
			sj.Batch = fmt.Sprintf("%016x", s.batch)
		}
		if err := enc.Encode(sj); err != nil {
			f.Close()
			return nil, err
		}
		byName[s.name] = append(byName[s.name], sj.End-sj.Start)
		selfByName[s.name] = append(selfByName[s.name], sj.Self)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	summary := make(map[string][2]float64, len(byName))
	for name, ds := range byName {
		summary[name] = [2]float64{median(ds), median(selfByName[name])}
	}
	return summary, f.Close()
}
