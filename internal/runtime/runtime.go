// Package runtime hosts the event-driven protocols of this repository on a
// real-time substrate: every replica runs a single-goroutine event loop fed
// by a transport (in-process channels or TCP) and wall-clock timers, with
// real cryptography (ed25519 + HMAC), real YCSB execution, and the
// blockchain ledger. Inbound messages are screened by the verification
// pipeline (a bounded crypto.PoolVerifier worker pool) before they reach
// the loop. The in-process Cluster wires checkpointing end to end — the
// executor implements core.StateHost over the ledger — and supports
// crash-recovery drills via Kill/Restart. It is the deployable counterpart
// of internal/simnet.
package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"spotless/internal/crypto"
	"spotless/internal/protocol"
	"spotless/internal/types"
)

// Transport moves messages between nodes.
type Transport interface {
	// Send delivers msg from one node to another (best effort).
	Send(from, to types.NodeID, msg types.Message)
	// Register attaches a local node's receive function.
	Register(id types.NodeID, recv func(from types.NodeID, msg types.Message))
}

// Broadcaster is optionally implemented by transports that can deliver one
// message to many peers from a single serialization. The TCP transport
// implements it (transport.Bcast): the payload is encoded once into a
// pooled buffer shared by every peer queue, and only the per-peer HMAC is
// computed per destination. Node.Broadcast uses it when available and falls
// back to per-peer Send otherwise (the in-process LocalTransport never
// serializes at all).
type Broadcaster interface {
	Bcast(from types.NodeID, to []types.NodeID, msg types.Message)
}

// BatchSource supplies client batches to proposing primaries; it must be
// safe for concurrent use.
type BatchSource interface {
	Next(instance int32, now time.Duration) *types.Batch
}

// Executor consumes globally ordered commits (execution + ledger + replies).
type Executor interface {
	Execute(c types.Commit)
}

type event struct {
	kind byte // 0 message, 1 timer, 2 func, 3 verification completion
	from types.NodeID
	msg  types.Message
	tag  protocol.TimerTag
	ok   bool // verification verdict (kind 3)
	fn   func()
}

// Node is one protocol host.
type Node struct {
	id     types.NodeID
	n, f   int
	trans  Transport
	bcast  Broadcaster    // non-nil when trans supports encode-once broadcast
	peers  []types.NodeID // every replica id except our own (broadcast set)
	crypto crypto.Provider
	src    BatchSource
	exec   Executor

	proto    protocol.Protocol
	inbox    chan event
	start    time.Time
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Instance sharding (protocol.ShardedProtocol + NodeConfig.Workers > 1):
	// events are routed to per-shard mailboxes — workers instance mailboxes
	// plus one ordering mailbox (the last element) — each drained by its own
	// goroutine, so the m consensus instances process messages, timers, and
	// verification completions concurrently while the ordering stage stays
	// serialized. router is published atomically because transport reader
	// goroutines race SetProtocol (a restarted replica registers while peers
	// are already sending); events received before the router exists land in
	// inbox and are forwarded by the ordering loop.
	shards  []*mbox
	router  atomic.Pointer[shardRef]
	workers int

	// Verification pipeline: inbound messages whose protocol declares
	// signature checks (protocol.IngressVerifier) are verified on this
	// bounded worker pool before they are posted to the event loop, so the
	// single-threaded state machine only consumes pre-verified messages.
	// VerifyAsync jobs share the same pool.
	verifier    *crypto.PoolVerifier
	ingress     atomic.Pointer[ingressRef]
	preVerified bool

	dropped atomic.Uint64 // inbox overflow (backpressure signal)
	badSigs atomic.Uint64 // messages dropped by ingress verification
}

// ingressRef wraps the interface for atomic publication to transport
// goroutines.
type ingressRef struct{ iv protocol.IngressVerifier }

// shardRef wraps the sharded-dispatch routing state for atomic publication.
type shardRef struct{ sp protocol.ShardedProtocol }

// mbox is one shard's mailbox: a buffered channel with a FIFO overflow
// queue. Loss-tolerant events (inbound messages) are posted with tryPost
// and shed when the channel is full; loss-intolerant events (commit
// handoffs, verification completions, timers) use postOrdered, which spills
// to the overflow queue instead — preserving per-mailbox FIFO, which the
// ordering stage's monotonic frontier guard depends on (a reordered commit
// handoff would read as a chain gap) — and a single drainer goroutine
// forwards the overflow without ever blocking the posting shard's loop.
type mbox struct {
	ch       chan event
	mu       sync.Mutex
	overflow []event
	spilling bool
}

func (mb *mbox) tryPost(ev event) bool {
	// Overflow-queue contents must stay ahead of fresh events.
	mb.mu.Lock()
	clear := !mb.spilling && len(mb.overflow) == 0
	mb.mu.Unlock()
	if !clear {
		return false
	}
	select {
	case mb.ch <- ev:
		return true
	default:
		return false
	}
}

func (mb *mbox) postOrdered(ev event, done <-chan struct{}) {
	mb.mu.Lock()
	if !mb.spilling && len(mb.overflow) == 0 {
		select {
		case mb.ch <- ev:
			mb.mu.Unlock()
			return
		default:
		}
	}
	mb.overflow = append(mb.overflow, ev)
	if !mb.spilling {
		mb.spilling = true
		go mb.drainOverflow(done)
	}
	mb.mu.Unlock()
}

func (mb *mbox) drainOverflow(done <-chan struct{}) {
	for {
		mb.mu.Lock()
		if len(mb.overflow) == 0 {
			mb.overflow = nil // release the backing array after a burst
			mb.spilling = false
			mb.mu.Unlock()
			return
		}
		ev := mb.overflow[0]
		mb.overflow[0] = event{} // release the popped payload/closure
		mb.overflow = mb.overflow[1:]
		mb.mu.Unlock()
		select {
		case mb.ch <- ev:
		case <-done:
			return
		}
	}
}

// NodeConfig parameterizes a runtime node.
type NodeConfig struct {
	ID        types.NodeID
	N, F      int
	Transport Transport
	Crypto    crypto.Provider
	Source    BatchSource
	Executor  Executor
	// PreVerified declares that the transport already screens inbound
	// signatures (e.g. transport.TCP.SetIngress), disabling the node-level
	// ingress screening to avoid verifying twice. VerifyAsync still uses
	// the node's pool.
	PreVerified bool
	// Workers enables instance-parallel dispatch for protocols implementing
	// protocol.ShardedProtocol: up to Workers mailbox+goroutine pairs host
	// the protocol's instance shards (instance i on mailbox i mod workers)
	// and one more hosts the serialized ordering stage. ≤ 1 keeps the
	// classic single event loop (the default); non-sharded protocols always
	// use the single loop regardless.
	Workers int
}

const (
	// inboxDepth bounds the event queue.
	inboxDepth = 1 << 16
	// verifyWorkers bounds the verification pool; 0 sizes it to GOMAXPROCS.
	verifyWorkers = 0
)

// NewNode creates a node; attach the protocol with SetProtocol, then Start.
func NewNode(cfg NodeConfig) *Node {
	n := &Node{
		id:          cfg.ID,
		n:           cfg.N,
		f:           cfg.F,
		trans:       cfg.Transport,
		crypto:      cfg.Crypto,
		src:         cfg.Source,
		exec:        cfg.Executor,
		inbox:       make(chan event, inboxDepth),
		done:        make(chan struct{}),
		verifier:    crypto.NewPoolVerifier(cfg.Crypto, verifyWorkers),
		preVerified: cfg.PreVerified,
		workers:     cfg.Workers,
	}
	if bc, ok := cfg.Transport.(Broadcaster); ok {
		n.bcast = bc
	}
	n.peers = make([]types.NodeID, 0, cfg.N-1)
	for i := 0; i < cfg.N; i++ {
		if types.NodeID(i) != cfg.ID {
			n.peers = append(n.peers, types.NodeID(i))
		}
	}
	cfg.Transport.Register(cfg.ID, n.receive)
	return n
}

// SetProtocol attaches the hosted protocol (before Start). Protocols
// implementing protocol.IngressVerifier get their inbound signature checks
// screened on the node's verification pool from this point on. With
// NodeConfig.Workers > 1 and a protocol implementing
// protocol.ShardedProtocol, per-shard mailboxes are set up and the protocol
// is bound to the node's cross-shard poster.
func (n *Node) SetProtocol(p protocol.Protocol) {
	n.proto = p
	if sp, ok := p.(protocol.ShardedProtocol); ok && n.workers > 1 && sp.ShardCount() > 1 {
		w := n.workers
		if sp.ShardCount() < w {
			w = sp.ShardCount()
		}
		n.shards = make([]*mbox, w+1) // last = ordering stage
		for i := range n.shards {
			n.shards[i] = &mbox{ch: make(chan event, cap(n.inbox))}
		}
		sp.BindShards(n)
		n.router.Store(&shardRef{sp: sp})
	}
	if iv, ok := p.(protocol.IngressVerifier); ok && !n.preVerified {
		n.ingress.Store(&ingressRef{iv: iv})
	}
}

// Verifier exposes the node's verification pool (shared with the transport
// in TCP deployments).
func (n *Node) Verifier() *crypto.PoolVerifier { return n.verifier }

// Start launches the event loop (or the per-shard loops) and invokes
// Protocol.Start.
func (n *Node) Start() {
	n.start = time.Now()
	if n.shards != nil {
		for i, mb := range n.shards {
			n.wg.Add(1)
			go n.shardLoop(mb, i == len(n.shards)-1)
		}
		// Protocol.Start runs on the ordering mailbox; a sharded protocol
		// fans its per-instance starts out through PostShard itself.
		n.orderingMailbox().postOrdered(event{kind: 2, fn: n.proto.Start}, n.done)
		return
	}
	n.wg.Add(1)
	go n.loop()
	n.post(event{kind: 2, fn: n.proto.Start})
}

// orderingMailbox returns the ordering stage's mailbox (sharded mode only).
func (n *Node) orderingMailbox() *mbox { return n.shards[len(n.shards)-1] }

// shardMailbox maps a shard id to its mailbox (instance i on worker
// i mod workers; negative ids on the ordering mailbox).
func (n *Node) shardMailbox(shard int32) *mbox {
	if shard < 0 {
		return n.orderingMailbox()
	}
	return n.shards[int(shard)%(len(n.shards)-1)]
}

// PostShard implements protocol.ShardPoster: fn runs serialized with the
// target shard's events, FIFO per mailbox, never shed. The overflow path
// never blocks the posting shard's loop — a blocking send could deadlock
// two shards posting into each other's full mailboxes.
func (n *Node) PostShard(shard int32, fn func()) {
	n.shardMailbox(shard).postOrdered(event{kind: 2, fn: fn}, n.done)
}

// Stop terminates the event loop and releases the verification pool. It is
// idempotent: Cluster.Kill followed by a deferred Cluster.Stop (the
// crash-recovery drill's failure path) must not double-close.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.done)
		n.wg.Wait()
		n.verifier.Close()
	})
}

// Dropped reports inbox overflow events.
func (n *Node) Dropped() uint64 { return n.dropped.Load() }

// BadSigs reports messages dropped by ingress signature screening.
func (n *Node) BadSigs() uint64 { return n.badSigs.Load() }

func (n *Node) receive(from types.NodeID, msg types.Message) {
	if ref := n.ingress.Load(); ref != nil && from != n.id {
		if job, needed := ref.iv.IngressJob(from, msg); needed {
			n.verifier.VerifyBatchAsync(job.Checks, job.Quorum, func(ok bool) {
				if !ok {
					n.badSigs.Add(1)
					return
				}
				n.postMessage(from, msg)
			})
			return
		}
	}
	n.postMessage(from, msg)
}

// postMessage routes one inbound (pre-verified) message to its shard
// mailbox, or to the single-loop inbox. Messages are loss-tolerant: a full
// mailbox sheds them (the dropped counter) rather than blocking the
// transport.
func (n *Node) postMessage(from types.NodeID, msg types.Message) {
	if ref := n.router.Load(); ref != nil {
		mb := n.shardMailbox(ref.sp.InstanceOf(msg))
		if !mb.tryPost(event{kind: 0, from: from, msg: msg}) {
			select {
			case <-n.done:
			default:
				n.dropped.Add(1)
			}
		}
		return
	}
	n.post(event{kind: 0, from: from, msg: msg})
}

func (n *Node) post(ev event) {
	select {
	case n.inbox <- ev:
	case <-n.done:
	default:
		// Shed load rather than deadlock the transport; BFT protocols
		// tolerate loss (the paper's asynchronous communication model).
		n.dropped.Add(1)
	}
}

// postCompletion delivers a VerifyAsync completion. Unlike post it never
// sheds — the Context.VerifyAsync contract promises exactly-once delivery
// and protocols key pending state on it. It must not block either: the
// pool may resolve a verdict synchronously on the event-loop goroutine
// itself (structurally infeasible batch, saturated-pool inline fallback),
// and a blocking send to the loop's own full inbox would deadlock the
// replica. A full inbox therefore hands the waiting to a fresh goroutine.
func (n *Node) postCompletion(ev event) {
	select {
	case n.inbox <- ev:
	case <-n.done:
	default:
		go func() {
			select {
			case n.inbox <- ev:
			case <-n.done:
			}
		}()
	}
}

func (n *Node) loop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.done:
			return
		case ev := <-n.inbox:
			n.dispatch(ev)
		}
	}
}

// shardLoop drains one shard mailbox. The ordering loop additionally
// forwards stragglers from inbox: events posted by transport goroutines in
// the window before SetProtocol published the router.
func (n *Node) shardLoop(mb *mbox, ordering bool) {
	defer n.wg.Done()
	for {
		if ordering {
			select {
			case <-n.done:
				return
			case ev := <-mb.ch:
				n.dispatch(ev)
			case ev := <-n.inbox:
				if ev.kind == 0 {
					n.postMessage(ev.from, ev.msg)
				} else {
					n.dispatch(ev)
				}
			}
			continue
		}
		select {
		case <-n.done:
			return
		case ev := <-mb.ch:
			n.dispatch(ev)
		}
	}
}

func (n *Node) dispatch(ev event) {
	switch ev.kind {
	case 0:
		n.proto.HandleMessage(ev.from, ev.msg)
	case 1:
		n.proto.HandleTimer(ev.tag)
	case 2:
		ev.fn()
	case 3:
		if vc, ok := n.proto.(protocol.VerifyConsumer); ok {
			vc.HandleVerified(ev.tag, ev.ok)
		}
	}
}

// --- protocol.Context ---

var _ protocol.Context = (*Node)(nil)

// ID implements protocol.Context.
func (n *Node) ID() types.NodeID { return n.id }

// N implements protocol.Context.
func (n *Node) N() int { return n.n }

// F implements protocol.Context.
func (n *Node) F() int { return n.f }

// Now implements protocol.Context (monotonic elapsed time).
func (n *Node) Now() time.Duration { return time.Since(n.start) }

// Send implements protocol.Context.
func (n *Node) Send(to types.NodeID, msg types.Message) {
	if to == n.id {
		n.postMessage(n.id, msg)
		return
	}
	n.trans.Send(n.id, to, msg)
}

// Broadcast implements protocol.Context. On transports implementing
// Broadcaster the message is serialized exactly once for all n−1 peers
// (encode-once); otherwise it falls back to per-peer Send.
func (n *Node) Broadcast(msg types.Message) {
	if n.bcast != nil {
		n.bcast.Bcast(n.id, n.peers, msg)
		return
	}
	for _, to := range n.peers {
		n.trans.Send(n.id, to, msg)
	}
}

// SetTimer implements protocol.Context. Sharded timers route to the shard
// named by the tag and never shed (adaptive view timers are the liveness
// backbone); single-loop behaviour is unchanged.
func (n *Node) SetTimer(d time.Duration, tag protocol.TimerTag) {
	time.AfterFunc(d, func() {
		if n.router.Load() != nil {
			n.shardMailbox(tag.Instance).postOrdered(event{kind: 1, tag: tag}, n.done)
			return
		}
		n.post(event{kind: 1, tag: tag})
	})
}

// VerifyAsync implements protocol.Context: the job runs on the node's
// verification pool and its completion is posted back to the event loop —
// or, sharded, to the mailbox of the shard named by the job's tag —
// honouring the completion-ordering contract (never reentrant, exactly
// once, correlated by tag).
func (n *Node) VerifyAsync(job protocol.VerifyJob) {
	n.verifier.VerifyBatchAsync(job.Checks, job.Quorum, func(ok bool) {
		if n.router.Load() != nil {
			n.shardMailbox(job.Tag.Instance).postOrdered(event{kind: 3, tag: job.Tag, ok: ok}, n.done)
			return
		}
		n.postCompletion(event{kind: 3, tag: job.Tag, ok: ok})
	})
}

// Crypto implements protocol.Context.
func (n *Node) Crypto() crypto.Provider { return n.crypto }

// Deliver implements protocol.Context.
func (n *Node) Deliver(c types.Commit) {
	if n.exec != nil {
		n.exec.Execute(c)
	}
}

// NextBatch implements protocol.Context.
func (n *Node) NextBatch(instance int32) *types.Batch {
	if n.src == nil {
		return nil
	}
	return n.src.Next(instance, n.Now())
}

// Logf implements protocol.Context; runtime nodes keep no debug log.
func (n *Node) Logf(string, ...any) {}

// --- in-process transport ---

// LocalTransport connects nodes within one process (channels, no
// serialization). It models the "local processes" deployment of the
// reproduction plan and underpins the examples and integration tests.
type LocalTransport struct {
	mu    sync.RWMutex
	recvs map[types.NodeID]func(from types.NodeID, msg types.Message)
	// Drop simulates link failure for (from, to) pairs (testing).
	drop map[[2]types.NodeID]bool
	// meter observes every delivered message (benchmarks tally rejoin
	// traffic with it); nil when unset.
	meter func(from, to types.NodeID, msg types.Message)
}

// NewLocalTransport creates an empty in-process transport.
func NewLocalTransport() *LocalTransport {
	return &LocalTransport{
		recvs: make(map[types.NodeID]func(types.NodeID, types.Message)),
		drop:  make(map[[2]types.NodeID]bool),
	}
}

// Register implements Transport.
func (t *LocalTransport) Register(id types.NodeID, recv func(from types.NodeID, msg types.Message)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recvs[id] = recv
}

// Send implements Transport.
func (t *LocalTransport) Send(from, to types.NodeID, msg types.Message) {
	t.mu.RLock()
	recv := t.recvs[to]
	blocked := t.drop[[2]types.NodeID{from, to}]
	meter := t.meter
	t.mu.RUnlock()
	if recv == nil || blocked {
		return
	}
	if meter != nil {
		meter(from, to, msg)
	}
	recv(from, msg)
}

// SetDrop blocks or unblocks the directed link from → to.
func (t *LocalTransport) SetDrop(from, to types.NodeID, drop bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.drop[[2]types.NodeID{from, to}] = drop
}

// SetMeter installs (or, with nil, removes) an observer for every delivered
// message. The power-cut benchmark uses it to measure a rejoiner's traffic
// in wire bytes.
func (t *LocalTransport) SetMeter(meter func(from, to types.NodeID, msg types.Message)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.meter = meter
}
