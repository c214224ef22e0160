package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spotless/internal/crypto"
	"spotless/internal/dissem"
	"spotless/internal/protocol"
	"spotless/internal/types"
)

// Replica is one SpotLess replica hosting m concurrent chained consensus
// instances (§4.1). It implements protocol.Protocol and can therefore run on
// the simulator, the in-process runtime, or the TCP transport.
//
// It also implements protocol.ShardedProtocol: each instance is one shard
// (all its proposals, views, syncs, and certificate jobs are strictly
// shard-local), and the cross-instance state — the total-order merge of
// ordering.go plus the checkpoint manager of checkpoint.go — lives on the
// serialized ordering stage. On a sharding substrate the instances run
// concurrently and hand commits to the ordering stage through the bound
// ShardPoster; on a serializing substrate every handoff runs inline and
// the replica behaves exactly as the single-event-loop original.
type Replica struct {
	ctx   protocol.Context
	cfg   Config
	insts []*Instance

	// poster routes cross-shard handoffs when a sharding substrate bound
	// one (BindShards); nil means every event is already serialized and
	// handoffs run inline.
	poster protocol.ShardPoster

	// ord is the total-order layer (§4.1, Figure 6): committed proposals
	// are ordered by (view, instance); execution of view v waits until
	// every instance passed view v. Ordering-shard state (see ordering.go).
	ord ordering

	// ckpt is the checkpoint + state-transfer manager (see checkpoint.go);
	// inert unless Config.CheckpointInterval > 0. Ordering-shard state.
	ckpt ckptState

	// Digest-ordering waiters (Config.Dissem only): shards blocked on a
	// batch digest — an instance waiting for the availability certificate
	// before claiming, or the ordering stage waiting for the payload before
	// delivering. The dissemination layer's notify callback (which may fire
	// from any shard or ingress goroutine) collects the registered shards
	// and posts their retries; the map therefore has its own lock rather
	// than riding any one shard.
	dwMu     sync.Mutex
	dWaiters map[types.Digest]map[int32]struct{}
	dwTicks  int // dissemination timer ticks since the last waiter flush (ordering shard)

	// resumed marks a replica rehydrated from a persisted checkpoint
	// (Config.Resume): Start re-installs the stable anchors on every
	// instance shard so each re-enters the rotation from its anchor.
	resumed bool

	// Stats exposed for tests and the harness. Written on the ordering
	// stage; concurrent readers (operator polling a live sharded node) use
	// DeliveredCount instead of the plain fields.
	Delivered uint64 // globally ordered non-noop batches
	NoOps     uint64

	deliveredMirror atomic.Uint64

	// Resync instrumentation (soak harness + /metrics): a resync is a
	// catch-up jump (f+1 replicas proved higher views exist) or a
	// state-transfer install that advanced an instance past views it never
	// ran. Written on instance shards, read from anywhere.
	resyncs          atomic.Uint64
	lastResyncNanos  atomic.Int64
	totalResyncNanos atomic.Int64
}

type orderedCommit struct {
	view  types.View
	batch *types.Batch
	dig   types.Digest
}

// New creates a SpotLess replica bound to its environment context.
func New(ctx protocol.Context, cfg Config) *Replica {
	if cfg.N == 0 {
		cfg = DefaultConfig(ctx.N(), 1)
	}
	if cfg.Instances < 1 {
		cfg.Instances = 1
	}
	r := &Replica{
		ctx: ctx,
		cfg: cfg,
		ord: newOrdering(cfg.Instances),
		ckpt: ckptState{
			anchors: make([]types.Anchor, cfg.Instances),
			tallies: make(map[uint64]map[types.NodeID]attest),
			newest:  make(map[types.NodeID]attest),
			local:   make(map[uint64]localCkpt),
		},
	}
	r.insts = make([]*Instance, cfg.Instances)
	for i := range r.insts {
		r.insts[i] = newInstance(r, int32(i))
	}
	if cfg.Dissem != nil {
		r.dWaiters = make(map[types.Digest]map[int32]struct{})
		cfg.Dissem.Bind(ctx, r.onDigestReady)
	}
	if cfg.Resume != nil && r.ckptEnabled() {
		r.applyResume(cfg.Resume)
	}
	return r
}

// Instance exposes instance state to tests.
func (r *Replica) Instance(i int32) *Instance { return r.insts[i] }

// CurrentView returns the view of instance i. Safe to call from outside
// the event loops (operator polling, live tests); it reads an atomic
// mirror updated at every view entry.
func (in *Instance) CurrentView() types.View { return types.View(in.viewMirror.Load()) }

// Lock returns the view of the instance's locked proposal (testing).
func (in *Instance) LockView() types.View { return in.lock.view }

// LastCommittedView returns the highest committed view of the instance.
func (in *Instance) LastCommittedView() types.View { return in.lastCommit.view }

// Start implements protocol.Protocol: all instances enter view 1 — each on
// its own shard when a sharding substrate bound a poster.
func (r *Replica) Start() {
	if r.cfg.Dissem != nil {
		r.post(protocol.OrderingShard, r.cfg.Dissem.Start)
	}
	for _, in := range r.insts {
		in := in
		r.post(in.id, in.start)
	}
	if r.resumed {
		// Re-enter the rotation from the persisted anchors: posts to the
		// same shard are ordered, so each installAnchor runs after start.
		for i, in := range r.insts {
			in, a := in, r.ckpt.stableAnch[i]
			r.post(in.id, func() { in.installAnchor(a) })
		}
	}
}

// --- protocol.ShardedProtocol ---

// ShardCount implements protocol.ShardedProtocol: one shard per instance.
func (r *Replica) ShardCount() int { return r.cfg.Instances }

// InstanceOf implements protocol.ShardedProtocol, mapping per-instance
// protocol messages to their shard and everything else — checkpoint
// attestations, state transfer, and malformed instance ids (dropped by the
// nil-instance guard wherever they run) — to the ordering stage. Stateless:
// it reads only construction-time configuration.
func (r *Replica) InstanceOf(msg types.Message) int32 {
	var inst int32
	switch m := msg.(type) {
	case *types.Propose:
		inst = m.Instance
	case *types.Sync:
		inst = m.Instance
	case *types.Ask:
		inst = m.Instance
	default:
		return protocol.OrderingShard
	}
	if inst < 0 || int(inst) >= r.cfg.Instances {
		return protocol.OrderingShard
	}
	return inst
}

// BindShards implements protocol.ShardedProtocol: cross-shard handoffs run
// through post from now on.
func (r *Replica) BindShards(p protocol.ShardPoster) { r.poster = p }

// post schedules fn serialized with the given shard's events: through the
// bound poster on a sharding substrate, inline when every event is already
// serialized (the classic single event loop, the simulator's default model,
// and direct-drive tests).
func (r *Replica) post(shard int32, fn func()) {
	if r.poster != nil {
		r.poster.PostShard(shard, fn)
		return
	}
	fn()
}

// DissemLayer exposes the bound dissemination layer (nil without digest
// ordering) so harnesses and metrics exporters can read its counters.
func (r *Replica) DissemLayer() *dissem.Layer { return r.cfg.Dissem }

// DeliveredCount reports the globally ordered non-noop batch count. Safe to
// call from outside the event loops (operator polling, benchmarks).
func (r *Replica) DeliveredCount() uint64 { return r.deliveredMirror.Load() }

// noteResync records one resync event (instance-shard callers).
func (r *Replica) noteResync(stalled time.Duration) {
	r.resyncs.Add(1)
	r.lastResyncNanos.Store(int64(stalled))
	r.totalResyncNanos.Add(int64(stalled))
}

// Resyncs reports how many catch-up jumps and state-transfer advances this
// replica performed. Safe from outside the event loops.
func (r *Replica) Resyncs() uint64 { return r.resyncs.Load() }

// LastResync reports how long the replica had been stalled when its most
// recent resync fired (0 when none happened). Safe from outside the loops.
func (r *Replica) LastResync() time.Duration { return time.Duration(r.lastResyncNanos.Load()) }

// TotalResyncStall sums the stall durations across all resyncs. Safe from
// outside the event loops.
func (r *Replica) TotalResyncStall() time.Duration {
	return time.Duration(r.totalResyncNanos.Load())
}

// HandleMessage implements protocol.Protocol, dispatching by instance.
func (r *Replica) HandleMessage(from types.NodeID, msg types.Message) {
	switch m := msg.(type) {
	case *types.Propose:
		if in := r.instance(m.Instance); in != nil {
			in.onPropose(m)
		}
	case *types.Sync:
		if in := r.instance(m.Instance); in != nil {
			in.onSync(from, m)
		}
	case *types.Ask:
		if in := r.instance(m.Instance); in != nil {
			in.onAsk(from, m)
		}
	case *types.Checkpoint:
		r.onCheckpoint(from, m)
	case *types.FetchState:
		r.onFetchState(from, m)
	case *types.StateChunk:
		r.onStateChunk(from, m)
	case *types.BatchDigest, *types.BatchAck, *types.BatchCert, *types.BatchChunk:
		// Dissemination traffic runs on the ordering shard (InstanceOf's
		// default); a replica without the layer drops it.
		if r.cfg.Dissem != nil {
			r.cfg.Dissem.OnMessage(from, msg)
		}
	}
}

// HandleTimer implements protocol.Protocol.
func (r *Replica) HandleTimer(tag protocol.TimerTag) {
	if tag.Kind == protocol.TimerStateFetch {
		r.onFetchTimer(tag)
		return
	}
	if tag.Kind == dissem.TimerKind {
		if r.cfg.Dissem != nil {
			r.cfg.Dissem.OnTimer()
			if r.dwTicks++; r.dwTicks >= dwFlushTicks {
				r.dwTicks = 0
				r.flushDigestWaiters()
			}
		}
		return
	}
	if in := r.instance(tag.Instance); in != nil {
		in.onTimer(tag)
	}
}

// IngressJob implements protocol.IngressVerifier. A Propose must carry a
// valid primary signature before it enters the state machine (check S1);
// the substrate runs the check off the event loop. Sync signatures are
// certificate material verified lazily by receivers that need them (§3.4),
// and Ask carries no signature — so SpotLess's all-to-all fast path stays
// MAC-priced, the asymmetry the paper's evaluation rests on. Embedded
// certificates (Propose.Parent.Cert) are likewise not screened here: they
// matter only on the recovery path, where the instance fans them out as one
// VerifyAsync batch job.
func (r *Replica) IngressJob(from types.NodeID, msg types.Message) (protocol.VerifyJob, bool) {
	switch m := msg.(type) {
	case *types.Propose:
		if m.Batch == nil {
			return protocol.VerifyJob{}, false
		}
		// Stateless pre-guards mirroring the loop's own cheap drops: bogus
		// instances and signers that are not the view's primary never reach
		// (or pay for) verification. The stateful flooding window (view too
		// far ahead) still costs one pooled check per junk proposal.
		if m.Instance < 0 || int(m.Instance) >= r.cfg.Instances ||
			m.Sig.Signer != PrimaryOf(m.Instance, m.View, r.cfg.N) {
			return protocol.VerifyJob{}, false
		}
		d := m.Digest()
		return protocol.VerifyJob{
			Checks: []crypto.Check{{Sig: m.Sig, Msg: d[:]}},
			Quorum: 1,
		}, true
	case *types.Checkpoint:
		// Attestations are tallied by signer; the signature must bind the
		// signer to (height, state hash) before the tally sees it, and the
		// signer must be a replica — clients share the keyring, and a
		// compromised client's signature must not count toward the f+1
		// lagging-detection threshold. (An empty infeasible job drops the
		// message.) The StateChunk certificate is not screened here: it is
		// verified as one fanned-out VerifyAsync batch on the recovery
		// path only.
		if m.Sig.Signer < 0 || int(m.Sig.Signer) >= r.cfg.N {
			return protocol.VerifyJob{Quorum: 1}, true
		}
		return protocol.VerifyJob{
			Checks: []crypto.Check{{Sig: m.Sig, Msg: types.CheckpointBytes(m.Height, m.StateHash)}},
			Quorum: 1,
		}, true
	case *types.BatchDigest, *types.BatchAck, *types.BatchCert, *types.BatchChunk:
		if r.cfg.Dissem == nil {
			// No layer bound: drop at ingress (an empty infeasible job).
			return protocol.VerifyJob{Quorum: 1}, true
		}
		return r.cfg.Dissem.IngressJob(from, msg)
	}
	return protocol.VerifyJob{}, false
}

// HandleVerified implements protocol.VerifyConsumer, routing asynchronous
// certificate-verification completions to their instance (Instance ≥ 0) or
// to the checkpoint manager (Instance −1: state-transfer certificates).
func (r *Replica) HandleVerified(tag protocol.TimerTag, ok bool) {
	if tag.Instance < 0 {
		r.onCkptVerified(tag, ok)
		return
	}
	if in := r.instance(tag.Instance); in != nil {
		in.onVerified(tag, ok)
	}
}

var (
	_ protocol.Protocol        = (*Replica)(nil)
	_ protocol.ShardedProtocol = (*Replica)(nil)
	_ protocol.IngressVerifier = (*Replica)(nil)
	_ protocol.VerifyConsumer  = (*Replica)(nil)
)

func (r *Replica) instance(i int32) *Instance {
	if i < 0 || int(i) >= len(r.insts) {
		return nil
	}
	return r.insts[i]
}

func (r *Replica) isAccomplice(id types.NodeID) bool {
	return r.cfg.Behavior.Accomplices[id]
}

// awaitDigest registers the given shard (an instance id, or
// protocol.OrderingShard for the delivery path) as blocked on a batch
// digest's certificate or payload. The caller MUST re-check the dissemination
// layer after registering — a notify that fired between the check and the
// registration would otherwise be lost for good — and unregister
// (unawaitDigest) when that re-check succeeds, since the notify that would
// have deleted the entry has already fired.
func (r *Replica) awaitDigest(shard int32, id types.Digest) {
	r.dwMu.Lock()
	w := r.dWaiters[id]
	if w == nil {
		w = make(map[int32]struct{}, 2)
		r.dWaiters[id] = w
	}
	w[shard] = struct{}{}
	r.dwMu.Unlock()
}

// unawaitDigest drops one shard's registration (idempotent — the notify may
// have deleted it concurrently).
func (r *Replica) unawaitDigest(shard int32, id types.Digest) {
	r.dwMu.Lock()
	if w := r.dWaiters[id]; w != nil {
		delete(w, shard)
		if len(w) == 0 {
			delete(r.dWaiters, id)
		}
	}
	r.dwMu.Unlock()
}

// dwFlushTicks paces flushDigestWaiters off the dissemination pump timer:
// 256 ticks ≈ 1.3s at the layer's 5ms pump interval.
const dwFlushTicks = 256

// flushDigestWaiters clears the waiter table and re-posts every registered
// shard's retry. Waiters normally leave through onDigestReady or the
// callers' post-re-check unregister; what accumulates beyond that is
// garbage no notify will ever fire for — digests referenced by a Byzantine
// proposal that never certify, abandoned when the instance's view moved on.
// Re-posting is always safe and makes the flush self-cleaning: a shard that
// still needs its digest re-evaluates and re-registers (and, as a bonus,
// re-backfills a parked delivery even if a notify was lost), while an
// abandoned wait simply disappears.
func (r *Replica) flushDigestWaiters() {
	r.dwMu.Lock()
	stale := r.dWaiters
	if len(stale) == 0 {
		r.dwMu.Unlock()
		return
	}
	r.dWaiters = make(map[types.Digest]map[int32]struct{})
	r.dwMu.Unlock()
	seen := make(map[int32]struct{})
	shards := make([]int32, 0, len(seen))
	for _, w := range stale {
		for s := range w {
			if _, dup := seen[s]; !dup {
				seen[s] = struct{}{}
				shards = append(shards, s)
			}
		}
	}
	// Deterministic post order: map iteration order must not leak into the
	// event schedule (the simnet drills replay by seed).
	sort.Slice(shards, func(i, j int) bool { return shards[i] < shards[j] })
	for _, shard := range shards {
		if shard == protocol.OrderingShard {
			r.post(protocol.OrderingShard, r.drain)
			continue
		}
		if in := r.instance(shard); in != nil {
			in := in
			r.post(shard, func() {
				in.retryPending()
				in.checkTransitions()
			})
		}
	}
}

// onDigestReady is the dissemination layer's notify callback: a digest
// gained its certificate or payload. It may fire from any shard (or an
// ingress goroutine), so it only collects the registered waiters and posts
// their retries onto the owning shards.
func (r *Replica) onDigestReady(id types.Digest) {
	r.dwMu.Lock()
	w := r.dWaiters[id]
	delete(r.dWaiters, id)
	r.dwMu.Unlock()
	for shard := range w {
		if shard == protocol.OrderingShard {
			r.post(protocol.OrderingShard, r.drain)
			continue
		}
		if in := r.instance(shard); in != nil {
			r.post(shard, func() {
				in.retryPending()
				in.checkTransitions()
			})
		}
	}
}

// noopBatch builds the no-op filler of §5 so idle instances do not block the
// execution of busy ones.
func (r *Replica) noopBatch(instance int32, v types.View) *types.Batch {
	var buf [12]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(instance))
	binary.LittleEndian.PutUint64(buf[4:], uint64(v))
	id := sha256.Sum256(buf[:])
	return &types.Batch{ID: id, NoOp: true}
}

// String describes the replica (debugging).
func (r *Replica) String() string {
	return fmt.Sprintf("spotless-replica{id=%d m=%d}", r.ctx.ID(), len(r.insts))
}
