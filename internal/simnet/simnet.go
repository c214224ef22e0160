// Package simnet is a deterministic discrete-event simulator for BFT
// protocol evaluation. It substitutes the paper's 128-machine Oracle-Cloud
// testbed (see docs/ARCHITECTURE.md) while preserving every resource that
// shapes the evaluation:
//
//   - per-replica egress bandwidth with FIFO serialization,
//   - per-region-pair propagation delay (geo-scale experiments),
//   - ResilientDB-style message buffering (§6.1) to batch small messages,
//   - a C-core CPU model: a handler's latency is its full service time
//     while the node's aggregate capacity is cores × time (an approximation
//     of ResilientDB's multi-threaded pipeline),
//   - a single-threaded sequential execution resource (340 ktxn/s, §6.1),
//   - calibrated CPU costs for MACs, signatures, and message handling.
//
// Protocols exchange their real messages; only the clock and resource costs
// are virtual, so message-complexity effects (Figure 1) emerge rather than
// being assumed.
package simnet

import (
	"math/rand"
	"time"

	"spotless/internal/crypto"
	"spotless/internal/protocol"
	"spotless/internal/types"
)

// Config parameterizes a simulation.
type Config struct {
	N     int   // number of replicas
	Seed  int64 // RNG seed (deterministic runs)
	Cores int   // CPU cores per replica (paper: 16)

	// InstanceWorkers ≥ 1 switches replicas hosting a
	// protocol.ShardedProtocol to the instance-parallel execution model:
	// events are routed to per-shard lanes (instance i on lane i mod
	// workers, the ordering stage on its own lane), each lane is one
	// dedicated modelled core executing its handlers serially, and lanes
	// run concurrently — so the modelled-cores charger reflects true
	// instance parallelism, mirroring runtime.NodeConfig.Workers. Clamped
	// to Cores. InstanceWorkers == 1 models the classic single event loop:
	// every handler, ordering included, serializes on one core. The
	// default (0) keeps the calibrated aggregate-capacity model: handlers
	// pipeline at work/Cores regardless of instance.
	InstanceWorkers int

	BandwidthMbps float64 // egress bandwidth per replica

	Regions       []int       // region of each replica (nil: all in region 0)
	RegionDelayMs [][]float64 // one-way inter-region propagation (ms)
	Jitter        time.Duration

	ExecRate        float64       // sequential execution rate, txn/s (paper: 340k)
	BaseHandlerCost time.Duration // per-message non-crypto processing cost

	BufferBytes int           // flush threshold of the message buffer
	BufferDelay time.Duration // max buffering delay

	LossRate float64 // per-packet loss probability (testing)

	Costs crypto.CostModel
}

const (
	// clientBandwidthMbps is the egress bandwidth of the aggregate client
	// node.
	clientBandwidthMbps = 400000
	// localDelay is the one-way propagation delay within a region.
	localDelay = 250 * time.Microsecond
	// perTxnCPU is the per-transaction bookkeeping on the core pool.
	perTxnCPU = 2 * time.Microsecond
)

// DefaultConfig returns parameters calibrated against §6.1 for n replicas.
func DefaultConfig(n int) Config {
	return Config{
		N:               n,
		Seed:            1,
		Cores:           16,
		BandwidthMbps:   2400,
		Jitter:          50 * time.Microsecond,
		ExecRate:        340000,
		BaseHandlerCost: 15 * time.Microsecond,
		BufferBytes:     16 << 10,
		BufferDelay:     150 * time.Microsecond,
		Costs: crypto.CostModel{
			Sign:      60 * time.Microsecond,
			Verify:    130 * time.Microsecond, // secp256k1-class (§6.2)
			MAC:       700 * time.Nanosecond,
			HashPerKB: 500 * time.Nanosecond,
		},
	}
}

// ClientNode is the identifier of the aggregate client node hosted by the
// simulation (metrics collection and Inform routing).
const ClientNode = types.ClientIDBase

// Stats aggregates counters over a simulation run.
type Stats struct {
	MessagesSent uint64 // protocol messages (not packets)
	PacketsSent  uint64 // buffered packets on the wire
	BytesSent    uint64
	EventsRun    uint64
	TimersFired  uint64
	// NodeBytesSent is per-sender egress volume (modelled wire bytes,
	// self-sends excluded), indexed by node — replica ids first, then the
	// client node. Per-node attribution is what the dissemination-egress
	// experiments compare (origin push vs peer serving load).
	NodeBytesSent []uint64
}

// event kinds
const (
	evDeliver = iota
	evTimer
	evFlush
	evFn
	evVerified // VerifyAsync completion
	evShardFn  // cross-shard post of a sharded protocol (dest = target lane)
)

type event struct {
	at   time.Duration
	seq  uint64
	kind uint8
	node int32 // target node index
	from types.NodeID
	msgs []types.Message
	tag  protocol.TimerTag
	dest int32
	gen  uint64
	ok   bool // evVerified verdict
	fn   func()
}

// outBuffer batches messages destined to one receiver (§6.1 buffering).
type outBuffer struct {
	msgs      []types.Message
	bytes     int
	gen       uint64
	scheduled bool
}

type simNode struct {
	idx      int32
	id       types.NodeID
	proto    protocol.Protocol
	ctx      *nodeCtx
	crypto   crypto.Provider
	verifier crypto.Verifier // batch verifier (modelled multi-core)
	region   int
	cores    int
	bwBps    float64 // bytes/sec
	execCost time.Duration

	cpuBusyUntil time.Duration
	egressFreeAt time.Duration
	execFreeAt   time.Duration

	// Instance-parallel model (Config.InstanceWorkers > 1 and a sharded
	// protocol): per-lane busy clocks — workers instance lanes plus the
	// ordering lane (last). Each lane is one dedicated modelled core
	// running its handlers serially; nil selects the aggregate model.
	lanes []time.Duration
	sp    protocol.ShardedProtocol

	buffers []outBuffer // indexed by destination node index
	down    bool
	// timerSkew models a drifting local clock (chaos profiles): every timer
	// the node arms is stretched by (1+skew) at schedule time. Positive =
	// slow clock (timers fire late, the node under-reacts to stalls);
	// negative = fast clock (premature claim(∅) spam). Message timing is
	// unaffected — only the node's own timer base drifts.
	timerSkew float64
	// gen counts protocol incarnations (Restart): timers and verification
	// completions scheduled by a previous incarnation are discarded at
	// dispatch, modelling that a crash loses all pending timers.
	gen uint64
}

// Simulation is a deterministic discrete-event run.
type Simulation struct {
	cfg   Config
	now   time.Duration
	seq   uint64
	heap  []event
	nodes []*simNode // n replicas + 1 client node
	rng   *rand.Rand
	src   BatchSource
	stats Stats

	blocked map[[2]int32]bool // partitioned directed links

	// adv is the deterministic adversary layer (see adversary.go): seeded
	// per-(pair, instance, view, kind) drop/delay rules applied to
	// replica-to-replica traffic before the network model. nil = inert.
	adv *Adversary

	// deliverHook observes every Deliver upcall (testing: total-order
	// consistency assertions across replicas).
	deliverHook func(node types.NodeID, c types.Commit)

	// handler scratch state
	cur          *simNode
	handlerStart time.Duration
	charge       time.Duration // critical-path latency of the handler
	work         time.Duration // aggregate CPU work (≥ charge on parallel stages)
	pendingSends []pendingSend
	pendingTimer []pendingTimer
	pendingDeliv []types.Commit
	pendingVerif []pendingVerified
	pendingPosts []pendingPost
}

type pendingSend struct {
	to  types.NodeID
	msg types.Message
}

type pendingTimer struct {
	d   time.Duration
	tag protocol.TimerTag
}

type pendingVerified struct {
	tag protocol.TimerTag
	ok  bool
}

type pendingPost struct {
	lane int
	fn   func()
}

// BatchSource supplies client batches to proposing primaries (§5). The
// harness implements closed-loop load control with it.
type BatchSource interface {
	Next(instance int32, now time.Duration) *types.Batch
}

// New creates a simulation with the given config. Protocols are attached
// with SetProtocol before Run.
func New(cfg Config) *Simulation {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.ExecRate <= 0 {
		cfg.ExecRate = 340000
	}
	// The verification pipeline defaults to the node's full core count; set
	// Costs.Cores = 1 to reproduce the serial (pre-pipeline) model.
	if cfg.Costs.Cores == 0 {
		cfg.Costs.Cores = cfg.Cores
	}
	s := &Simulation{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		blocked: make(map[[2]int32]bool),
	}
	s.stats.NodeBytesSent = make([]uint64, cfg.N+1)
	total := cfg.N + 1 // replicas + client node
	s.nodes = make([]*simNode, total)
	for i := 0; i < total; i++ {
		n := &simNode{
			idx:      int32(i),
			id:       types.NodeID(i),
			cores:    cfg.Cores,
			bwBps:    cfg.BandwidthMbps * 1e6 / 8,
			execCost: time.Duration(float64(time.Second) / cfg.ExecRate),
			buffers:  make([]outBuffer, total),
		}
		if i < cfg.N && cfg.Regions != nil {
			n.region = cfg.Regions[i]
		}
		if i == cfg.N { // client node
			n.id = ClientNode
			n.cores = 1 << 10
			n.bwBps = clientBandwidthMbps * 1e6 / 8
			n.execCost = 0
		}
		n.ctx = &nodeCtx{s: s, n: n}
		prov := crypto.NewSimProvider(n.id, cfg.Costs, n.ctx)
		n.crypto = prov
		n.verifier = prov
		s.nodes[i] = n
	}
	return s
}

// SetProtocol attaches the protocol instance hosted by replica i (or the
// client node when id == ClientNode).
func (s *Simulation) SetProtocol(id types.NodeID, p protocol.Protocol) {
	s.attach(s.node(id), p)
}

// attach installs a protocol on a node and, when the instance-parallel
// model is enabled and the protocol shards, sets up the per-shard lanes and
// binds the cross-shard poster (mirroring runtime.Node.SetProtocol).
func (s *Simulation) attach(n *simNode, p protocol.Protocol) {
	n.proto = p
	n.lanes, n.sp = nil, nil
	if s.cfg.InstanceWorkers > 0 {
		if sp, ok := p.(protocol.ShardedProtocol); ok {
			w := s.cfg.InstanceWorkers
			if sp.ShardCount() < w {
				w = sp.ShardCount()
			}
			// A lane is one dedicated modelled core, and the ordering lane
			// is one more — instance lanes + ordering must fit in Cores.
			if n.cores-1 < w {
				w = n.cores - 1
			}
			n.sp = sp
			if w <= 1 {
				// The single-event-loop model: one lane carries every
				// handler, the ordering stage included.
				n.lanes = make([]time.Duration, 1)
			} else {
				n.lanes = make([]time.Duration, w+1) // last = ordering lane
			}
			sp.BindShards(n.ctx)
		}
	}
}

// laneOf maps a shard id to the node's lane index.
func (n *simNode) laneOf(shard int32) int {
	w := len(n.lanes) - 1
	if w == 0 {
		return 0 // single-loop model: everything on one lane
	}
	if shard < 0 {
		return w
	}
	return int(shard) % w
}

// orderingLane is where protocol lifecycle handlers (Start) run.
func (n *simNode) orderingLane() int {
	if n.lanes == nil {
		return 0
	}
	return len(n.lanes) - 1
}

// msgLane routes one inbound message to its lane.
func (n *simNode) msgLane(msg types.Message) int {
	if n.sp == nil {
		return 0
	}
	return n.laneOf(n.sp.InstanceOf(msg))
}

// tagLane routes a timer or verification completion to its lane.
func (n *simNode) tagLane(tag protocol.TimerTag) int {
	if n.sp == nil {
		return 0
	}
	return n.laneOf(tag.Instance)
}

// SetBatchSource wires the client-load source used by NextBatch.
func (s *Simulation) SetBatchSource(src BatchSource) { s.src = src }

// Context returns the protocol.Context of a node, used by harnesses to
// construct protocol instances.
func (s *Simulation) Context(id types.NodeID) protocol.Context { return s.node(id).ctx }

func (s *Simulation) node(id types.NodeID) *simNode {
	if id == ClientNode {
		return s.nodes[s.cfg.N]
	}
	return s.nodes[int(id)]
}

// Now returns the virtual clock.
func (s *Simulation) Now() time.Duration { return s.now }

// Stats returns a copy of the run counters (the per-node slice included, so
// snapshots taken at different virtual times diff correctly).
func (s *Simulation) Stats() Stats {
	st := s.stats
	st.NodeBytesSent = append([]uint64(nil), s.stats.NodeBytesSent...)
	return st
}

// SetDown marks a replica non-responsive (attack A1) from the current
// virtual time onward: it drops all input and produces no output.
func (s *Simulation) SetDown(id types.NodeID, down bool) { s.node(id).down = down }

// Restart models a crash-recovery: the replica comes back up with a fresh
// protocol instance (all in-memory consensus state lost) built by the given
// constructor, and its Start runs under the CPU model at the current
// virtual time. Timers and verification completions scheduled by the
// previous incarnation are discarded (a crash loses its pending timers —
// without this, an untagged heartbeat like TimerRetransmit would re-arm in
// the new incarnation and double its retransmission chain forever);
// recovery then proceeds through the protocol's own state-transfer path.
// Call from a Schedule'd hook.
func (s *Simulation) Restart(id types.NodeID, build func(ctx protocol.Context) protocol.Protocol) {
	n := s.node(id)
	n.down = false
	n.gen++
	p := build(n.ctx)
	s.attach(n, p)
	s.runHandler(n, n.orderingLane(), func() { p.Start() })
}

// SetTimerSkew sets a replica's clock-drift factor (see simNode.timerSkew):
// every timer it arms from now on is stretched to (1+skew)·d, clamped at 0.
// skew 0 restores an exact clock. Call from a Schedule'd hook.
func (s *Simulation) SetTimerSkew(id types.NodeID, skew float64) {
	if skew < -0.95 {
		skew = -0.95 // keep timers strictly forward-moving
	}
	s.node(id).timerSkew = skew
}

func (n *simNode) skewTimer(d time.Duration) time.Duration {
	if n.timerSkew == 0 {
		return d
	}
	sd := time.Duration(float64(d) * (1 + n.timerSkew))
	if sd < 0 {
		return 0
	}
	return sd
}

// BlockLink drops all traffic from a to b (network partition injection).
func (s *Simulation) BlockLink(a, b types.NodeID, blocked bool) {
	key := [2]int32{s.node(a).idx, s.node(b).idx}
	if blocked {
		s.blocked[key] = true
	} else {
		delete(s.blocked, key)
	}
}

// SetDeliverHook registers an observer for every execution-layer delivery.
func (s *Simulation) SetDeliverHook(fn func(node types.NodeID, c types.Commit)) {
	s.deliverHook = fn
}

// Schedule runs fn at virtual time at (harness hooks: failure injection,
// periodic sampling).
func (s *Simulation) Schedule(at time.Duration, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.push(event{at: at, kind: evFn, fn: fn})
}

// Start invokes Protocol.Start on every attached protocol at time zero.
func (s *Simulation) Start() {
	for _, n := range s.nodes {
		if n.proto == nil {
			continue
		}
		node := n
		s.push(event{at: 0, kind: evFn, fn: func() {
			s.runHandler(node, node.orderingLane(), func() { node.proto.Start() })
		}})
	}
}

// Run processes events until the virtual clock reaches until (exclusive) or
// the event queue drains.
func (s *Simulation) Run(until time.Duration) {
	for len(s.heap) > 0 {
		ev := s.heap[0]
		if ev.at >= until {
			s.now = until
			return
		}
		s.pop()
		s.now = ev.at
		s.stats.EventsRun++
		s.dispatch(ev)
	}
	if s.now < until {
		s.now = until
	}
}

func (s *Simulation) dispatch(ev event) {
	switch ev.kind {
	case evFn:
		ev.fn()
	case evTimer:
		n := s.nodes[ev.node]
		if n.down || n.proto == nil || ev.gen != n.gen {
			return
		}
		s.stats.TimersFired++
		tag := ev.tag
		s.runHandler(n, n.tagLane(tag), func() { n.proto.HandleTimer(tag) })
	case evDeliver:
		n := s.nodes[ev.node]
		if n.down || n.proto == nil {
			return
		}
		from := ev.from
		for _, m := range ev.msgs {
			msg := m
			s.runHandler(n, n.msgLane(msg), func() {
				// Ingress verification stage: MAC plus any declared
				// signature checks, charged as parallel CPU work ahead of
				// the protocol handler (see screen). Failing messages are
				// dropped before the state machine sees them.
				if from != n.id && !s.screen(n, from, msg) {
					return
				}
				n.proto.HandleMessage(from, msg)
			})
			if n.down { // a handler may down the node (tests)
				break
			}
		}
	case evVerified:
		n := s.nodes[ev.node]
		if n.down || n.proto == nil || ev.gen != n.gen {
			return
		}
		vc, ok := n.proto.(protocol.VerifyConsumer)
		if !ok {
			return
		}
		tag, verdict := ev.tag, ev.ok
		s.runHandler(n, n.tagLane(tag), func() { vc.HandleVerified(tag, verdict) })
	case evShardFn:
		n := s.nodes[ev.node]
		if n.down || n.proto == nil || ev.gen != n.gen {
			return
		}
		s.runHandler(n, int(ev.dest), ev.fn)
	case evFlush:
		n := s.nodes[ev.node]
		buf := &n.buffers[ev.dest]
		buf.scheduled = false
		if buf.gen == ev.gen && len(buf.msgs) > 0 {
			s.flush(n, ev.dest, s.now)
		}
	}
}

// screen runs the ingress verification stage for one inbound message: the
// transport-level MAC check plus whatever signature checks the protocol
// declared for the message (protocol.IngressVerifier). Signature batches
// are charged as parallel work across the node's verification cores
// (CostModel.Cores) instead of serializing on the event loop — the
// simulated counterpart of the runtime's worker pool. Must run inside
// runHandler. Reports whether the message may enter the state machine.
func (s *Simulation) screen(n *simNode, from types.NodeID, msg types.Message) bool {
	n.ctx.ChargeCPU(s.cfg.Costs.MAC) // pairwise MAC on every delivery (§2)
	iv, ok := n.proto.(protocol.IngressVerifier)
	if !ok {
		return true
	}
	job, needed := iv.IngressJob(from, msg)
	if !needed {
		return true
	}
	return n.verifier.VerifyBatch(job.Checks, job.Quorum)
}

// runHandler executes one protocol event handler under the CPU model and
// applies its buffered effects at the handler's finish time. The handler's
// latency is its critical-path service time (s.charge); its capacity
// consumption is its aggregate work (s.work), which exceeds the latency
// when verification batches ran on parallel virtual cores.
//
// Under the aggregate model (lanes == nil) handlers queue behind the
// node-wide capacity clock and pipeline at work/cores. Under the
// instance-parallel model each lane is one dedicated modelled core: the
// handler queues behind its own lane only and occupies it for its full
// critical path, so lanes — instances — run concurrently exactly like the
// runtime's per-shard goroutines.
func (s *Simulation) runHandler(n *simNode, lane int, fn func()) {
	start := s.now
	if n.lanes != nil {
		if n.lanes[lane] > start {
			start = n.lanes[lane]
		}
	} else if n.cpuBusyUntil > start {
		start = n.cpuBusyUntil
	}
	s.cur = n
	s.handlerStart = start
	s.charge = s.cfg.BaseHandlerCost
	s.work = s.cfg.BaseHandlerCost
	s.pendingSends = s.pendingSends[:0]
	s.pendingTimer = s.pendingTimer[:0]
	s.pendingDeliv = s.pendingDeliv[:0]
	s.pendingVerif = s.pendingVerif[:0]
	s.pendingPosts = s.pendingPosts[:0]

	fn()

	finish := start + s.charge // latency: full critical-path service time
	if n.lanes != nil {
		n.lanes[lane] = finish
	} else {
		n.cpuBusyUntil = start + s.work/time.Duration(n.cores)
	}
	s.cur = nil

	for _, d := range s.pendingDeliv {
		s.execute(n, d, finish)
	}
	for _, t := range s.pendingTimer {
		s.push(event{at: finish + n.skewTimer(t.d), kind: evTimer, node: n.idx, tag: t.tag, gen: n.gen})
	}
	for _, v := range s.pendingVerif {
		s.push(event{at: finish, kind: evVerified, node: n.idx, tag: v.tag, ok: v.ok, gen: n.gen})
	}
	for _, p := range s.pendingPosts {
		s.push(event{at: finish, kind: evShardFn, node: n.idx, dest: int32(p.lane), gen: n.gen, fn: p.fn})
	}
	for _, snd := range s.pendingSends {
		s.enqueueSend(n, snd.to, snd.msg, finish)
	}
}

// execute models sequential execution of a committed batch and the Inform
// reply to the client (§5, §6.1).
func (s *Simulation) execute(n *simNode, c types.Commit, at time.Duration) {
	if s.deliverHook != nil {
		s.deliverHook(n.id, c)
	}
	txns := 0
	if c.Batch != nil && !c.Batch.NoOp {
		txns = len(c.Batch.Txns)
	}
	startExec := at
	if n.execFreeAt > startExec {
		startExec = n.execFreeAt
	}
	done := startExec + time.Duration(txns)*n.execCost
	n.execFreeAt = done
	if txns == 0 {
		return // no-ops are not executed nor reported (§5)
	}
	inform := &types.Inform{Replica: n.id, BatchID: c.Batch.ID}
	// Charge the per-transaction bookkeeping to the core pool (aggregate
	// model) or to the ordering lane's dedicated core (lane model — the
	// ordering stage is what hands batches to execution).
	if n.lanes != nil {
		n.lanes[len(n.lanes)-1] += time.Duration(txns) * perTxnCPU
	} else {
		n.cpuBusyUntil += time.Duration(txns) * perTxnCPU / time.Duration(n.cores)
	}
	s.enqueueSendSized(n, ClientNode, inform, types.InformWireSize(txns), done)
}

// enqueueSend buffers msg for destination with its modelled wire size.
func (s *Simulation) enqueueSend(n *simNode, to types.NodeID, msg types.Message, at time.Duration) {
	s.enqueueSendSized(n, to, msg, msg.WireSize(), at)
}

func (s *Simulation) enqueueSendSized(n *simNode, to types.NodeID, msg types.Message, size int, at time.Duration) {
	dest := s.node(to)
	s.stats.MessagesSent++
	s.stats.BytesSent += uint64(size)
	if dest.idx == n.idx { // self-send: direct delivery, no network
		s.push(event{at: at, kind: evDeliver, node: n.idx, from: n.id, msgs: []types.Message{msg}})
		return
	}
	if int(n.idx) < len(s.stats.NodeBytesSent) {
		s.stats.NodeBytesSent[n.idx] += uint64(size)
	}
	// Adversary layer: targeted drop or delay of replica-to-replica
	// messages (drills). Delayed messages bypass the egress buffer — the
	// point is to move one message's arrival, not to reshape batching —
	// but never the network model's own gates: a downed sender, an
	// injected partition, and packet loss still apply (evaluated here, at
	// enqueue time, where flush would evaluate them one buffer delay
	// later).
	if s.adv != nil && int(n.idx) < s.cfg.N && int(dest.idx) < s.cfg.N {
		drop, delay := s.adv.verdict(n.id, dest.id, msg)
		if drop {
			return
		}
		if delay > 0 {
			if n.down || s.blocked[[2]int32{n.idx, dest.idx}] {
				return
			}
			if s.cfg.LossRate > 0 && s.rng.Float64() < s.cfg.LossRate {
				return
			}
			s.push(event{at: at + delay + s.propDelay(n, dest), kind: evDeliver,
				node: dest.idx, from: n.id, msgs: []types.Message{msg}})
			return
		}
	}
	buf := &n.buffers[dest.idx]
	buf.msgs = append(buf.msgs, msg)
	buf.bytes += size
	if buf.bytes >= s.cfg.BufferBytes {
		s.flush(n, dest.idx, at)
		return
	}
	if !buf.scheduled {
		buf.scheduled = true
		s.push(event{at: at + s.cfg.BufferDelay, kind: evFlush, node: n.idx, dest: dest.idx, gen: buf.gen})
	}
}

// flush serializes one buffered packet onto the sender's egress link.
func (s *Simulation) flush(n *simNode, destIdx int32, at time.Duration) {
	buf := &n.buffers[destIdx]
	msgs := buf.msgs
	size := buf.bytes
	buf.msgs = nil
	buf.bytes = 0
	buf.gen++
	buf.scheduled = false
	if n.down {
		return
	}
	if s.blocked[[2]int32{n.idx, destIdx}] {
		return
	}
	if s.cfg.LossRate > 0 && s.rng.Float64() < s.cfg.LossRate {
		return
	}
	txStart := at
	if n.egressFreeAt > txStart {
		txStart = n.egressFreeAt
	}
	txEnd := txStart + time.Duration(float64(size)/n.bwBps*float64(time.Second))
	n.egressFreeAt = txEnd
	arrival := txEnd + s.propDelay(n, s.nodes[destIdx])
	if s.cfg.Jitter > 0 {
		arrival += time.Duration(s.rng.Int63n(int64(s.cfg.Jitter)))
	}
	s.stats.PacketsSent++
	s.push(event{at: arrival, kind: evDeliver, node: destIdx, from: n.id, msgs: msgs})
}

func (s *Simulation) propDelay(a, b *simNode) time.Duration {
	if a.region == b.region || s.cfg.RegionDelayMs == nil {
		return localDelay
	}
	ms := s.cfg.RegionDelayMs[a.region][b.region]
	return time.Duration(ms * float64(time.Millisecond))
}

// --- event heap (manual binary heap, stable via seq) ---

func (s *Simulation) push(ev event) {
	ev.seq = s.seq
	s.seq++
	s.heap = append(s.heap, ev)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !less(s.heap[i], s.heap[p]) {
			break
		}
		s.heap[i], s.heap[p] = s.heap[p], s.heap[i]
		i = p
	}
}

func (s *Simulation) pop() {
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		sm := i
		if l < last && less(s.heap[l], s.heap[sm]) {
			sm = l
		}
		if r < last && less(s.heap[r], s.heap[sm]) {
			sm = r
		}
		if sm == i {
			break
		}
		s.heap[i], s.heap[sm] = s.heap[sm], s.heap[i]
		i = sm
	}
}

func less(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// --- per-node protocol.Context ---

type nodeCtx struct {
	s *Simulation
	n *simNode
}

var _ protocol.Context = (*nodeCtx)(nil)
var _ crypto.ParallelCharger = (*nodeCtx)(nil)
var _ protocol.ShardPoster = (*nodeCtx)(nil)

// PostShard implements protocol.ShardPoster for the instance-parallel
// model: the posted function runs as its own event on the target shard's
// lane at the posting handler's finish time — the virtual-time counterpart
// of the runtime's cross-shard mailbox post. FIFO per (source, target) is
// preserved by the event heap's stable sequence numbers.
func (c *nodeCtx) PostShard(shard int32, fn func()) {
	lane := c.n.laneOf(shard)
	if c.inHandler() {
		c.s.pendingPosts = append(c.s.pendingPosts, pendingPost{lane: lane, fn: fn})
		return
	}
	c.s.push(event{at: c.s.now, kind: evShardFn, node: c.n.idx, dest: int32(lane), gen: c.n.gen, fn: fn})
}

func (c *nodeCtx) ID() types.NodeID { return c.n.id }
func (c *nodeCtx) N() int           { return c.s.cfg.N }
func (c *nodeCtx) F() int           { return (c.s.cfg.N - 1) / 3 }

func (c *nodeCtx) Now() time.Duration {
	if c.s.cur == c.n {
		return c.s.handlerStart
	}
	return c.s.now
}

func (c *nodeCtx) ChargeCPU(d time.Duration) {
	if c.s.cur == c.n {
		c.s.charge += d
		c.s.work += d
	} else {
		c.n.cpuBusyUntil += d / time.Duration(c.n.cores)
	}
}

// ChargeCPUParallel implements crypto.ParallelCharger: a verification batch
// adds only its critical-path latency to the handler's service time while
// its full aggregate work drains the node's core capacity.
func (c *nodeCtx) ChargeCPUParallel(total, critical time.Duration) {
	if c.s.cur == c.n {
		c.s.charge += critical
		c.s.work += total
	} else {
		c.n.cpuBusyUntil += total / time.Duration(c.n.cores)
	}
}

// inHandler reports whether the context's node is currently executing a
// protocol handler; effects outside handlers (harness hooks) apply at once.
func (c *nodeCtx) inHandler() bool { return c.s.cur == c.n }

func (c *nodeCtx) Send(to types.NodeID, msg types.Message) {
	if c.inHandler() {
		c.s.pendingSends = append(c.s.pendingSends, pendingSend{to: to, msg: msg})
		return
	}
	c.s.enqueueSend(c.n, to, msg, c.s.now)
}

func (c *nodeCtx) Broadcast(msg types.Message) {
	for i := 0; i < c.s.cfg.N; i++ {
		if int32(i) == c.n.idx {
			continue
		}
		c.Send(types.NodeID(i), msg)
	}
}

func (c *nodeCtx) SetTimer(d time.Duration, tag protocol.TimerTag) {
	if c.inHandler() {
		c.s.pendingTimer = append(c.s.pendingTimer, pendingTimer{d: d, tag: tag})
		return
	}
	c.s.push(event{at: c.s.now + c.n.skewTimer(d), kind: evTimer, node: c.n.idx, tag: tag, gen: c.n.gen})
}

func (c *nodeCtx) Crypto() crypto.Provider { return c.n.crypto }

// VerifyAsync implements protocol.Context. The batch is charged to the
// issuing handler as a parallel verification stage (its verdict is computed
// deterministically right away), and the completion is delivered as its own
// event at the handler's finish time — never reentrantly.
func (c *nodeCtx) VerifyAsync(job protocol.VerifyJob) {
	ok := c.n.verifier.VerifyBatch(job.Checks, job.Quorum)
	if c.inHandler() {
		c.s.pendingVerif = append(c.s.pendingVerif, pendingVerified{tag: job.Tag, ok: ok})
		return
	}
	c.s.push(event{at: c.s.now, kind: evVerified, node: c.n.idx, tag: job.Tag, ok: ok, gen: c.n.gen})
}

func (c *nodeCtx) Deliver(commit types.Commit) {
	if c.inHandler() {
		c.s.pendingDeliv = append(c.s.pendingDeliv, commit)
		return
	}
	c.s.execute(c.n, commit, c.s.now)
}

func (c *nodeCtx) NextBatch(instance int32) *types.Batch {
	if c.s.src == nil {
		return nil
	}
	return c.s.src.Next(instance, c.Now())
}

// Logf implements protocol.Context; simulated nodes keep no debug log.
func (c *nodeCtx) Logf(string, ...any) {}
