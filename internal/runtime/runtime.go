// Package runtime hosts the event-driven protocols of this repository on a
// real-time substrate: every replica runs its protocol on mailbox event
// loops (one ordering mailbox, plus instance mailboxes for an
// instance-parallel protocol) fed by a transport (in-process channels or
// TCP) and wall-clock timers, with real cryptography (ed25519 + HMAC), real
// YCSB execution, and the blockchain ledger. Inbound messages are screened
// by the verification pipeline (a bounded crypto.PoolVerifier worker pool)
// before they reach a mailbox. The in-process Cluster wires checkpointing
// end to end — the executor implements core.StateHost over the ledger —
// and supports crash-recovery drills via Kill/Restart. It is the
// deployable counterpart of internal/simnet.
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
	kind   byte // 0 message, 1 timer, 2 func, 3 verification completion
	routed bool // message posted to its shard's mailbox by the router (kind 0)
	from   types.NodeID
	msg    types.Message
	tag    protocol.TimerTag
	ok     bool // verification verdict (kind 3)
	fn     func()
}

// Node is one protocol host. Every event reaches the protocol through a
// mailbox drained by its own goroutine. The ordering mailbox always exists
// and, on a single-mailbox node (NodeConfig.Workers ≤ 1 or a non-sharded
// protocol), carries every event; with instance parallelism, instance
// mailboxes sit in front of it and it hosts the serialized ordering stage.
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
	start    time.Time
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// ordering is set by NewNode and never replaced, so transport goroutines
	// may post to it before SetProtocol runs. Instance sharding
	// (protocol.ShardedProtocol + NodeConfig.Workers > 1) publishes the
	// instance mailboxes with the router in one atomic shardRef, because
	// transport reader goroutines race SetProtocol (a restarted replica
	// registers while peers are already sending); messages received before
	// the router exists wait on the ordering mailbox and the ordering loop
	// forwards them to their shard.
	ordering *mbox
	router   atomic.Pointer[shardRef]
	workers  int

	// Verification pipeline: inbound messages whose protocol declares
	// signature checks (protocol.IngressVerifier) are verified on this
	// bounded worker pool before they are posted to a mailbox, so the
	// single-threaded state machines only consume pre-verified messages.
	// VerifyAsync jobs share the same pool.
	verifier    *crypto.PoolVerifier
	ingress     atomic.Pointer[ingressRef]
	preVerified bool

	dropped atomic.Uint64 // messages shed on a full mailbox (backpressure signal)
	badSigs atomic.Uint64 // messages dropped by ingress verification
}

// ingressRef wraps the interface for atomic publication to transport
// goroutines.
type ingressRef struct{ iv protocol.IngressVerifier }

// shardRef wraps the sharded-dispatch routing state for atomic publication:
// the router and the instance mailboxes (instance i on shards[i mod len]).
type shardRef struct {
	sp     protocol.ShardedProtocol
	shards []*mbox
}

// mbox is one shard's mailbox: a buffered channel with a FIFO overflow
// queue. Loss-tolerant events (inbound messages) are posted with tryPost
// and shed when the channel is full; loss-intolerant events (timers,
// commit handoffs, verification completions) use postOrdered, which spills
// to the overflow queue instead — preserving per-mailbox FIFO, which the
// ordering stage's monotonic frontier guard depends on (a reordered commit
// handoff would read as a chain gap) — and a single drainer goroutine
// forwards the overflow without ever blocking the posting loop.
type mbox struct {
	ch       chan event
	mu       sync.Mutex
	overflow []event
	// spilling is written under mu and holds while overflow is non-empty;
	// tryPost reads it without the lock.
	spilling atomic.Bool
}

func newMbox() *mbox { return &mbox{ch: make(chan event, inboxDepth)} }

func (mb *mbox) tryPost(ev event) bool {
	// Overflow-queue contents must stay ahead of fresh events.
	if mb.spilling.Load() {
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
	if !mb.spilling.Load() {
		select {
		case mb.ch <- ev:
			mb.mu.Unlock()
			return
		default:
		}
		mb.spilling.Store(true)
		go mb.drainOverflow(done)
	}
	mb.overflow = append(mb.overflow, ev)
	mb.mu.Unlock()
}

func (mb *mbox) drainOverflow(done <-chan struct{}) {
	for {
		mb.mu.Lock()
		if len(mb.overflow) == 0 {
			mb.overflow = nil // release the backing array after a burst
			mb.spilling.Store(false)
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
	// in front of the ordering mailbox, which hosts the serialized ordering
	// stage. ≤ 1 keeps every event on the ordering mailbox (the default);
	// non-sharded protocols always run on that one mailbox regardless.
	Workers int
}

const (
	// inboxDepth bounds each mailbox's channel.
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
		done:        make(chan struct{}),
		ordering:    newMbox(),
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
// protocol.ShardedProtocol, instance mailboxes are set up and the protocol
// is bound to the node's cross-shard poster.
func (n *Node) SetProtocol(p protocol.Protocol) {
	n.proto = p
	if sp, ok := p.(protocol.ShardedProtocol); ok && n.workers > 1 && sp.ShardCount() > 1 {
		shards := make([]*mbox, min(n.workers, sp.ShardCount()))
		for i := range shards {
			shards[i] = newMbox()
		}
		sp.BindShards(n)
		n.router.Store(&shardRef{sp: sp, shards: shards})
	}
	if iv, ok := p.(protocol.IngressVerifier); ok && !n.preVerified {
		n.ingress.Store(&ingressRef{iv: iv})
	}
}

// Verifier exposes the node's verification pool (shared with the transport
// in TCP deployments).
func (n *Node) Verifier() *crypto.PoolVerifier { return n.verifier }

// Start launches one loop per mailbox and invokes Protocol.Start on the
// ordering mailbox; a sharded protocol fans its per-instance starts out
// through PostShard itself.
func (n *Node) Start() {
	n.start = time.Now()
	n.wg.Add(1)
	go n.loop(n.ordering)
	if ref := n.router.Load(); ref != nil {
		for _, mb := range ref.shards {
			n.wg.Add(1)
			go n.loop(mb)
		}
	}
	n.ordering.postOrdered(event{kind: 2, fn: n.proto.Start}, n.done)
}

// mailbox maps a shard id to its mailbox: instance i on instance mailbox
// i mod workers; negative ids, and every id on a single-mailbox node, on
// the ordering mailbox.
func (n *Node) mailbox(shard int32) *mbox {
	if ref := n.router.Load(); ref != nil && shard >= 0 {
		return ref.shards[int(shard)%len(ref.shards)]
	}
	return n.ordering
}

// PostShard implements protocol.ShardPoster: fn runs serialized with the
// target shard's events, FIFO per mailbox, never shed. The overflow path
// never blocks the posting shard's loop — a blocking send could deadlock
// two shards posting into each other's full mailboxes.
func (n *Node) PostShard(shard int32, fn func()) {
	n.mailbox(shard).postOrdered(event{kind: 2, fn: fn}, n.done)
}

// Stop terminates the mailbox loops and releases the verification pool. It
// is idempotent: Cluster.Kill followed by a deferred Cluster.Stop (the
// crash-recovery drill's failure path) must not double-close.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.done)
		n.wg.Wait()
		n.verifier.Close()
	})
}

// Dropped reports inbound messages shed on a full mailbox.
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

// postMessage posts one inbound (pre-verified) message to the mailbox of
// its shard, or to the ordering mailbox while no router exists. Messages
// are loss-tolerant: a full mailbox sheds them (the dropped counter)
// rather than blocking the transport; BFT protocols tolerate loss (the
// paper's asynchronous communication model).
func (n *Node) postMessage(from types.NodeID, msg types.Message) {
	ev := event{kind: 0, from: from, msg: msg}
	mb := n.ordering
	if ref := n.router.Load(); ref != nil {
		mb, ev.routed = n.mailbox(ref.sp.InstanceOf(msg)), true
	}
	if !mb.tryPost(ev) {
		select {
		case <-n.done:
		default:
			n.dropped.Add(1)
		}
	}
}

// loop drains one mailbox. A message that reached the ordering mailbox
// before SetProtocol published the router is forwarded to its shard.
func (n *Node) loop(mb *mbox) {
	defer n.wg.Done()
	for {
		select {
		case <-n.done:
			return
		case ev := <-mb.ch:
			if ev.kind == 0 && !ev.routed && n.router.Load() != nil {
				n.postMessage(ev.from, ev.msg)
				continue
			}
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

// SetTimer implements protocol.Context. The expiry goes to the mailbox of
// the shard named by the tag and is never shed: adaptive view timers are
// the liveness backbone, and self-re-arming timers (retransmission,
// dissemination pump) would stop for good after one lost tick.
func (n *Node) SetTimer(d time.Duration, tag protocol.TimerTag) {
	time.AfterFunc(d, func() {
		n.mailbox(tag.Instance).postOrdered(event{kind: 1, tag: tag}, n.done)
	})
}

// VerifyAsync implements protocol.Context: the job runs on the node's
// verification pool and its completion is posted to the mailbox of the
// shard named by the job's tag, honouring the completion-ordering contract
// (never reentrant, exactly once, correlated by tag). postOrdered never
// blocks, so a verdict the pool resolves synchronously on the posting loop
// itself cannot deadlock on that loop's full mailbox.
func (n *Node) VerifyAsync(job protocol.VerifyJob) {
	n.verifier.VerifyBatchAsync(job.Checks, job.Quorum, func(ok bool) {
		n.mailbox(job.Tag.Instance).postOrdered(event{kind: 3, tag: job.Tag, ok: ok}, n.done)
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
