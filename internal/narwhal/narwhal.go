// Package narwhal implements the Narwhal-HS baseline of §6.2, following the
// paper's own simulation of it: transaction dissemination is decoupled from
// ordering — every replica broadcasts its client batches, collects 2f+1
// signed availability acknowledgements into a certificate, and broadcasts
// the certificate; every replica verifies the 2f+1 signatures per batch
// (the protocol's CPU bottleneck, Figure 14). A chained HotStuff instance
// orders certified batch digests.
package narwhal

import (
	"time"

	"spotless/internal/crypto"
	"spotless/internal/hotstuff"
	"spotless/internal/protocol"
	"spotless/internal/types"
)

// Config parameterizes a Narwhal-HS replica.
type Config struct {
	N, F int
	// HS configures the embedded ordering instance.
	HS hotstuff.Config
	// DisseminateRetry re-polls the batch source when it ran dry.
	DisseminateRetry time.Duration
	// MaxRefsPerBlock caps how many certified batches one block orders.
	MaxRefsPerBlock int
	// Window is the per-worker dissemination flow-control window: batches
	// broadcast but not yet ordered. It backpressures batch production to
	// the certificate-verification capacity (the system bottleneck).
	Window int
}

// DefaultConfig returns the tuned baseline configuration.
func DefaultConfig(n int) Config {
	hs := hotstuff.DefaultConfig(n)
	// Certificate verification traffic inflates ordering-view latency well
	// past bare HotStuff's; a higher pacemaker floor avoids spurious
	// timeouts that would break the 3-chain.
	hs.MinTimeout *= 3
	return Config{
		N:                n,
		F:                (n - 1) / 3,
		HS:               hs,
		DisseminateRetry: time.Millisecond,
		MaxRefsPerBlock:  4096,
		Window:           16,
	}
}

type batchState struct {
	batch      *types.Batch
	acks       map[types.NodeID]types.Signature
	mine       bool // we are the disseminating origin
	certified  bool
	ordered    bool
	proposedAt time.Duration // when we last referenced it in our own block
}

const (
	timerDisseminate = 201
	timerRequeue     = 202
)

// Replica is one Narwhal-HS replica: a dissemination worker plus an
// embedded HotStuff orderer.
type Replica struct {
	ctx protocol.Context
	cfg Config
	hs  *hotstuff.Replica

	batches map[types.Digest]*batchState
	// pendingRefs are this replica's own certified batches awaiting a turn
	// as leader (each validator orders its own dissemination lane, as in
	// Narwhal; cross-lane duplication would bloat blocks).
	pendingRefs []types.Digest
	// awaitRefs holds commits whose referenced batch payload has not
	// arrived yet (delivered once dissemination catches up).
	awaitRefs map[types.Digest][]types.Commit
	inflight  int // own batches broadcast but not yet ordered

	// Delivered counts ordered, payload-resolved batches (testing).
	Delivered uint64
}

// New creates a Narwhal-HS replica.
func New(ctx protocol.Context, cfg Config) *Replica {
	r := &Replica{
		ctx:       ctx,
		cfg:       cfg,
		batches:   make(map[types.Digest]*batchState),
		awaitRefs: make(map[types.Digest][]types.Commit),
	}
	hcfg := cfg.HS
	hcfg.N, hcfg.F = cfg.N, cfg.F
	hcfg.Payload = r.payload
	hcfg.OnCommit = r.onCommit
	r.hs = hotstuff.New(ctx, hcfg)
	return r
}

// Start implements protocol.Protocol.
func (r *Replica) Start() {
	r.hs.Start()
	// Stagger worker start to spread the initial certificate-verification
	// burst across the cluster.
	r.ctx.SetTimer(time.Duration(int(r.ctx.ID())%16)*2*time.Millisecond,
		protocol.TimerTag{Kind: timerDisseminate})
	r.ctx.SetTimer(time.Second, protocol.TimerTag{Kind: timerRequeue})
}

// disseminate broadcasts the replica's next client batch; each replica is
// its own dissemination worker (load-balanced bandwidth, §6.2).
func (r *Replica) disseminate() {
	if r.inflight >= r.cfg.Window {
		return // flow control; resumed when an own batch is ordered
	}
	batch := r.ctx.NextBatch(int32(r.ctx.ID()))
	if batch == nil {
		r.ctx.SetTimer(r.cfg.DisseminateRetry, protocol.TimerTag{Kind: timerDisseminate})
		return
	}
	r.inflight++
	st := &batchState{batch: batch, mine: true, acks: make(map[types.NodeID]types.Signature)}
	r.batches[batch.ID] = st
	msg := &types.NarwhalBatch{Origin: r.ctx.ID(), Batch: batch}
	r.ctx.Broadcast(msg)
	// Self-acknowledge.
	r.onAck(r.ctx.ID(), &types.NarwhalAck{Origin: r.ctx.ID(), BatchID: batch.ID,
		Sig: r.ctx.Crypto().Sign(batch.ID[:])})
	// Keep the pipeline full: next batch immediately.
	r.ctx.SetTimer(r.cfg.DisseminateRetry, protocol.TimerTag{Kind: timerDisseminate})
}

// HandleMessage implements protocol.Protocol.
func (r *Replica) HandleMessage(from types.NodeID, msg types.Message) {
	switch m := msg.(type) {
	case *types.NarwhalBatch:
		r.onBatch(from, m)
	case *types.NarwhalAck:
		r.onAck(from, m)
	case *types.NarwhalCert:
		r.onCert(from, m)
	default:
		r.hs.HandleMessage(from, msg)
	}
}

// HandleTimer implements protocol.Protocol.
func (r *Replica) HandleTimer(tag protocol.TimerTag) {
	switch tag.Kind {
	case timerDisseminate:
		r.disseminate()
	case timerRequeue:
		r.requeueLost()
		r.ctx.SetTimer(time.Second, protocol.TimerTag{Kind: timerRequeue})
	default:
		r.hs.HandleTimer(tag)
	}
}

// IngressJob implements protocol.IngressVerifier. The 2f+1 certificate
// signatures every replica must check per batch — the protocol's CPU
// bottleneck (§6.4) — fan out as one batch job off the event loop, and each
// availability acknowledgement is checked before it reaches the origin's
// loop. Ordering-layer messages delegate to the embedded HotStuff
// classifier. The state machine below consumes only pre-verified messages.
func (r *Replica) IngressJob(from types.NodeID, msg types.Message) (protocol.VerifyJob, bool) {
	switch m := msg.(type) {
	case *types.NarwhalAck:
		// Acks must be signed by their sender — a replayed third-party
		// signature would verify yet leave the assembled certificate
		// short of distinct signers.
		if m.Origin != r.ctx.ID() || m.Sig.Signer != from {
			return protocol.VerifyJob{}, false // onAck drops misrouted acks unread
		}
		return protocol.VerifyJob{
			Checks: []crypto.Check{{Sig: m.Sig, Msg: m.BatchID[:]}},
			Quorum: 1,
		}, true
	case *types.NarwhalCert:
		if crypto.DistinctSigners(m.Sigs) < 2*r.cfg.F+1 {
			return protocol.VerifyJob{}, false // onCert drops short certs at map cost
		}
		checks := make([]crypto.Check, len(m.Sigs))
		for i, sig := range m.Sigs {
			checks[i] = crypto.Check{Sig: sig, Msg: m.BatchID[:]}
		}
		return protocol.VerifyJob{Checks: checks, Quorum: 2*r.cfg.F + 1}, true
	case *types.NarwhalBatch:
		return protocol.VerifyJob{}, false
	}
	return r.hs.IngressJob(from, msg)
}

var (
	_ protocol.Protocol        = (*Replica)(nil)
	_ protocol.IngressVerifier = (*Replica)(nil)
)

func (r *Replica) onBatch(from types.NodeID, m *types.NarwhalBatch) {
	if m.Batch == nil {
		return
	}
	st, ok := r.batches[m.Batch.ID]
	if !ok {
		st = &batchState{acks: make(map[types.NodeID]types.Signature)}
		r.batches[m.Batch.ID] = st
	}
	if st.batch == nil {
		st.batch = m.Batch
		r.flushAwaiting(m.Batch.ID)
	}
	// Acknowledge availability to the origin with a signature.
	ack := &types.NarwhalAck{Origin: m.Origin, BatchID: m.Batch.ID,
		Sig: r.ctx.Crypto().Sign(m.Batch.ID[:])}
	if m.Origin == r.ctx.ID() {
		r.onAck(r.ctx.ID(), ack)
	} else {
		r.ctx.Send(m.Origin, ack)
	}
}

func (r *Replica) onAck(from types.NodeID, m *types.NarwhalAck) {
	if m.Origin != r.ctx.ID() {
		return
	}
	st, ok := r.batches[m.BatchID]
	if !ok || st.certified {
		return
	}
	if _, dup := st.acks[from]; dup {
		return
	}
	// Ack signatures are pre-verified at ingress and bound to their
	// sender, so every stored ack is valid certificate material with a
	// distinct signer.
	if m.Sig.Signer != from {
		return
	}
	st.acks[from] = m.Sig
	if len(st.acks) != 2*r.cfg.F+1 {
		return
	}
	// Availability certificate complete: broadcast it.
	sigs := make([]types.Signature, 0, len(st.acks))
	for _, s := range st.acks {
		sigs = append(sigs, s)
	}
	cert := &types.NarwhalCert{BatchID: m.BatchID, Sigs: sigs}
	r.ctx.Broadcast(cert)
	r.onCert(r.ctx.ID(), cert)
}

func (r *Replica) onCert(from types.NodeID, m *types.NarwhalCert) {
	st, ok := r.batches[m.BatchID]
	if !ok {
		st = &batchState{acks: make(map[types.NodeID]types.Signature)}
		r.batches[m.BatchID] = st
	}
	if st.certified {
		return
	}
	// The 2f+1 certificate signatures every replica checks — the CPU
	// bottleneck the paper attributes to Narwhal-HS (§6.4) — were verified
	// by the ingress pipeline as one batch job; only the structural
	// distinct-signer count remains on the loop.
	if from != r.ctx.ID() && crypto.DistinctSigners(m.Sigs) < 2*r.cfg.F+1 {
		return
	}
	st.certified = true
	if st.mine {
		r.pendingRefs = append(r.pendingRefs, m.BatchID)
	}
}

// requeueLost re-queues own certified batches whose referencing block was
// lost to a view change (no commit within a generous deadline).
func (r *Replica) requeueLost() {
	for id, st := range r.batches {
		if st.mine && st.certified && !st.ordered && st.proposedAt > 0 &&
			r.ctx.Now()-st.proposedAt > 2*time.Second {
			st.proposedAt = 0
			r.pendingRefs = append(r.pendingRefs, id)
		}
	}
}

// payload supplies the next block's certified-batch references to the
// embedded HotStuff leader.
func (r *Replica) payload(v types.View) (*types.Batch, []types.Digest) {
	nrefs := len(r.pendingRefs)
	if nrefs == 0 {
		return nil, nil
	}
	if nrefs > r.cfg.MaxRefsPerBlock {
		nrefs = r.cfg.MaxRefsPerBlock
	}
	refs := make([]types.Digest, nrefs)
	copy(refs, r.pendingRefs[:nrefs])
	r.pendingRefs = r.pendingRefs[nrefs:]
	now := r.ctx.Now()
	for _, id := range refs {
		if st, ok := r.batches[id]; ok {
			st.proposedAt = now
		}
	}
	return nil, refs
}

// onCommit resolves ordered references to their payloads and delivers.
func (r *Replica) onCommit(c types.Commit, refs []types.Digest) {
	for i, ref := range refs {
		st, ok := r.batches[ref]
		if !ok || st.batch == nil {
			// Payload still in flight: deliver once it arrives.
			r.awaitRefs[ref] = append(r.awaitRefs[ref], types.Commit{View: c.View, Proposal: ref})
			continue
		}
		if st.ordered {
			continue
		}
		st.ordered = true
		r.Delivered++
		r.ctx.Deliver(types.Commit{Instance: int32(i), View: c.View, Batch: st.batch, Proposal: ref})
		r.creditOrigin(st)
	}
}

// creditOrigin returns a flow-control credit when one of our own batches is
// ordered, resuming dissemination.
func (r *Replica) creditOrigin(st *batchState) {
	if !st.mine {
		return
	}
	st.mine = false
	if r.inflight > 0 {
		r.inflight--
	}
	r.disseminate()
}

func (r *Replica) flushAwaiting(id types.Digest) {
	waits, ok := r.awaitRefs[id]
	if !ok {
		return
	}
	delete(r.awaitRefs, id)
	st := r.batches[id]
	for _, c := range waits {
		if st.ordered {
			break
		}
		st.ordered = true
		r.Delivered++
		r.ctx.Deliver(types.Commit{View: c.View, Batch: st.batch, Proposal: id})
		r.creditOrigin(st)
	}
}
