// Package pbft implements the Practical Byzantine Fault Tolerance baseline
// of §6.2: a heavily pipelined, MAC-authenticated, out-of-order
// primary-backup protocol. RCC (internal/rcc) runs many instances of it
// concurrently.
//
// The implementation covers the full normal case (preprepare / prepare /
// commit with out-of-order slots) and a crash-fault view change that rotates
// a non-responsive primary. Byzantine-equivocation-proof view changes are
// out of scope for this baseline (the evaluation only subjects Pbft to
// non-responsive failures, as in the paper).
package pbft

import (
	"crypto/sha256"
	"encoding/binary"
	"time"

	"spotless/internal/protocol"
	"spotless/internal/types"
)

// Config parameterizes a Pbft instance.
type Config struct {
	N, F int
	// Instance tags all messages (RCC runs many Pbft instances).
	Instance int32
	// PrimaryBase: the primary of pview p is (PrimaryBase + p) mod n. RCC
	// fixes one primary per instance by using PrimaryBase = instance.
	PrimaryBase types.NodeID
	// Window is the out-of-order pipeline depth (§6.1).
	Window int
	// ProgressTimeout triggers a view change when no slot is delivered
	// while the pipeline is non-empty.
	ProgressTimeout time.Duration
	// ProposeRetry re-polls the batch source when it ran dry.
	ProposeRetry time.Duration
}

// DefaultConfig returns the tuned baseline configuration.
func DefaultConfig(n int) Config {
	return Config{
		N:      n,
		F:      (n - 1) / 3,
		Window: 64,
		// The watchdog must sit above the worst-case slot latency, which
		// grows with the all-to-all phases' serialization at scale.
		ProgressTimeout: 150*time.Millisecond + time.Duration(n)*3*time.Millisecond,
		ProposeRetry:    2 * time.Millisecond,
	}
}

type slot struct {
	batch      *types.Batch
	digest     types.Digest
	prepares   map[types.NodeID]bool
	commits    map[types.NodeID]bool
	sentCommit bool
	committed  bool
}

// Replica is one Pbft replica (for one instance).
type Replica struct {
	ctx protocol.Context
	cfg Config

	pview    types.View
	seqHead  uint64 // next sequence the primary will propose
	lowWater uint64 // next sequence to deliver
	slots    map[uint64]*slot

	vcVotes map[types.View]map[types.NodeID]uint64

	lastDelivered uint64
	lastProgress  time.Duration
	suspended     bool // RCC suspension: drop all instance work

	// OnDeliver overrides delivery (RCC total ordering); nil delivers
	// directly to ctx.Deliver with View = sequence.
	OnDeliver func(seq uint64, batch *types.Batch, digest types.Digest)

	// Delivered counts slots delivered in order (testing).
	Delivered uint64
}

// New creates a Pbft replica.
func New(ctx protocol.Context, cfg Config) *Replica {
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	return &Replica{
		ctx:     ctx,
		cfg:     cfg,
		slots:   make(map[uint64]*slot),
		vcVotes: make(map[types.View]map[types.NodeID]uint64),
	}
}

func (r *Replica) primary() types.NodeID {
	return types.NodeID((uint64(r.cfg.PrimaryBase) + uint64(r.pview)) % uint64(r.cfg.N))
}

func (r *Replica) isPrimary() bool { return r.primary() == r.ctx.ID() }

func (r *Replica) quorum() int { return 2*r.cfg.F + 1 }

func (r *Replica) slot(seq uint64) *slot {
	s, ok := r.slots[seq]
	if !ok {
		s = &slot{prepares: make(map[types.NodeID]bool), commits: make(map[types.NodeID]bool)}
		r.slots[seq] = s
	}
	return s
}

// Start implements protocol.Protocol.
func (r *Replica) Start() {
	r.lastProgress = r.ctx.Now()
	if r.isPrimary() {
		r.fillPipeline()
	}
	r.ctx.SetTimer(r.cfg.ProgressTimeout, protocol.TimerTag{Kind: protocol.TimerPbft, Instance: r.cfg.Instance})
}

// Suspend pauses/resumes the instance (RCC exponential-backoff penalty).
func (r *Replica) Suspend(on bool) {
	r.suspended = on
	if !on {
		r.lastProgress = r.ctx.Now()
		if r.isPrimary() {
			r.fillPipeline()
		}
	}
}

// LowWater exposes the delivery frontier (RCC gating and tests).
func (r *Replica) LowWater() uint64 { return r.lowWater }

// fillPipeline keeps Window slots in flight (out-of-order processing, §4).
func (r *Replica) fillPipeline() {
	if r.suspended || !r.isPrimary() {
		return
	}
	proposed := false
	for r.seqHead < r.lowWater+uint64(r.cfg.Window) {
		batch := r.ctx.NextBatch(r.cfg.Instance)
		if batch == nil {
			if !proposed {
				r.ctx.SetTimer(r.cfg.ProposeRetry, protocol.TimerTag{Kind: protocol.TimerPropose, Instance: r.cfg.Instance})
			}
			return
		}
		proposed = true
		pp := &types.PrePrepare{Instance: r.cfg.Instance, PView: r.pview, Seq: r.seqHead, Batch: batch}
		r.seqHead++
		r.ctx.Broadcast(pp)
		r.onPrePrepare(r.ctx.ID(), pp)
	}
}

// IngressJob implements protocol.IngressVerifier. Pbft is the paper's
// MAC-authenticated baseline (§6.2): none of its messages carry digital
// signatures, so the declaration is empty and authentication happens
// entirely at the transport layer — pairwise MACs checked on reader
// goroutines (TCP) or charged at delivery (simulation). Declaring that
// explicitly keeps all five protocols uniform for the substrates' ingress
// pipeline.
func (r *Replica) IngressJob(from types.NodeID, msg types.Message) (protocol.VerifyJob, bool) {
	return protocol.VerifyJob{}, false
}

var (
	_ protocol.Protocol        = (*Replica)(nil)
	_ protocol.IngressVerifier = (*Replica)(nil)
)

// HandleMessage implements protocol.Protocol.
func (r *Replica) HandleMessage(from types.NodeID, msg types.Message) {
	if r.suspended {
		return
	}
	switch m := msg.(type) {
	case *types.PrePrepare:
		r.onPrePrepare(from, m)
	case *types.Prepare:
		r.onPrepare(from, m)
	case *types.PbftCommit:
		r.onCommit(from, m)
	case *types.ViewChange:
		r.onViewChange(from, m)
	case *types.NewPView:
		r.onNewPView(from, m)
	}
}

func (r *Replica) onPrePrepare(from types.NodeID, m *types.PrePrepare) {
	if m.PView != r.pview || from != r.primary() || m.Batch == nil {
		return
	}
	if m.Seq < r.lowWater || m.Seq >= r.lowWater+uint64(4*r.cfg.Window) {
		return
	}
	s := r.slot(m.Seq)
	if s.batch != nil && s.digest != m.Batch.ID {
		return // conflicting payload for a retained slot: keep the first
	}
	if s.batch == nil {
		s.batch = m.Batch
		s.digest = m.Batch.ID
	}
	// A primary proposing is progress; the watchdog must not count idle
	// pipeline time against it.
	r.lastProgress = r.ctx.Now()
	if s.prepares[r.ctx.ID()] {
		return // already prepared this slot in this view
	}
	p := &types.Prepare{Instance: r.cfg.Instance, PView: m.PView, Seq: m.Seq, Digest: s.digest}
	r.ctx.Broadcast(p)
	r.onPrepare(r.ctx.ID(), p)
}

func (r *Replica) onPrepare(from types.NodeID, m *types.Prepare) {
	if m.PView != r.pview {
		return
	}
	s := r.slot(m.Seq)
	if s.prepares[from] {
		return
	}
	s.prepares[from] = true
	if len(s.prepares) >= r.quorum() && s.batch != nil && !s.sentCommit {
		s.sentCommit = true
		c := &types.PbftCommit{Instance: r.cfg.Instance, PView: m.PView, Seq: m.Seq, Digest: s.digest}
		r.ctx.Broadcast(c)
		r.onCommit(r.ctx.ID(), c)
	}
}

func (r *Replica) onCommit(from types.NodeID, m *types.PbftCommit) {
	if m.PView != r.pview {
		return
	}
	s := r.slot(m.Seq)
	if s.commits[from] {
		return
	}
	s.commits[from] = true
	if len(s.commits) >= r.quorum() && s.batch != nil && !s.committed {
		s.committed = true
		r.drain()
	}
}

// drain delivers committed slots in sequence order and refills the pipeline.
func (r *Replica) drain() {
	for {
		s, ok := r.slots[r.lowWater]
		if !ok || !s.committed {
			break
		}
		seq := r.lowWater
		delete(r.slots, seq)
		r.lowWater++
		r.Delivered++
		r.lastProgress = r.ctx.Now()
		if r.OnDeliver != nil {
			r.OnDeliver(seq, s.batch, s.digest)
		} else {
			r.ctx.Deliver(types.Commit{Instance: r.cfg.Instance, View: types.View(seq), Batch: s.batch, Proposal: s.digest})
		}
	}
	r.fillPipeline()
}

// HandleTimer implements protocol.Protocol.
func (r *Replica) HandleTimer(tag protocol.TimerTag) {
	if r.suspended {
		return
	}
	switch tag.Kind {
	case protocol.TimerPropose:
		r.fillPipeline()
	case protocol.TimerPbft:
		// Progress watchdog: a stuck pipeline with an alive backlog means
		// the primary failed — demand a view change.
		stuck := len(r.slots) > 0 && r.ctx.Now()-r.lastProgress > r.cfg.ProgressTimeout
		if stuck && !r.isPrimary() {
			vc := &types.ViewChange{Instance: r.cfg.Instance, NewPView: r.pview + 1, LastSeq: r.lowWater}
			r.ctx.Broadcast(vc)
			r.onViewChange(r.ctx.ID(), vc)
		}
		r.ctx.SetTimer(r.cfg.ProgressTimeout, protocol.TimerTag{Kind: protocol.TimerPbft, Instance: r.cfg.Instance})
	}
}

func (r *Replica) onViewChange(from types.NodeID, m *types.ViewChange) {
	if m.NewPView <= r.pview {
		return
	}
	votes := r.vcVotes[m.NewPView]
	if votes == nil {
		votes = make(map[types.NodeID]uint64)
		r.vcVotes[m.NewPView] = votes
	}
	votes[from] = m.LastSeq
	if len(votes) < r.quorum() {
		return
	}
	// Install the new view; the new primary restarts the pipeline from the
	// highest reported low-water mark (crash-fault recovery).
	start := r.lowWater
	for _, s := range votes {
		if s > start {
			start = s
		}
	}
	r.installView(m.NewPView, start)
	if r.isPrimary() {
		np := &types.NewPView{Instance: r.cfg.Instance, PView: r.pview, StartSeq: start}
		r.ctx.Broadcast(np)
		r.fillPipeline()
	}
}

func (r *Replica) onNewPView(from types.NodeID, m *types.NewPView) {
	if m.PView < r.pview {
		return
	}
	if from != types.NodeID((uint64(r.cfg.PrimaryBase)+uint64(m.PView))%uint64(r.cfg.N)) {
		return
	}
	r.installView(m.PView, m.StartSeq)
}

func (r *Replica) installView(v types.View, start uint64) {
	if v < r.pview {
		return
	}
	r.pview = v
	if start > r.lowWater {
		r.lowWater = start
		r.seqHead = start
	}
	if r.seqHead < r.lowWater {
		r.seqHead = r.lowWater
	}
	// In-flight slots restart in the new view: votes of the old view are
	// void, every replica re-prepares its retained payloads, and the new
	// primary re-proposes them so no client batch is lost across a view
	// change.
	for seq, s := range r.slots {
		if seq < r.lowWater {
			delete(r.slots, seq)
			continue
		}
		s.prepares = make(map[types.NodeID]bool)
		s.commits = make(map[types.NodeID]bool)
		s.sentCommit = false
		if s.batch != nil && !s.committed {
			p := &types.Prepare{Instance: r.cfg.Instance, PView: r.pview, Seq: seq, Digest: s.digest}
			r.ctx.Broadcast(p)
			r.onPrepare(r.ctx.ID(), p)
		}
	}
	if r.isPrimary() {
		for seq := r.lowWater; seq < r.seqHead; seq++ {
			s, ok := r.slots[seq]
			batch := (*types.Batch)(nil)
			if ok && s.batch != nil {
				batch = s.batch
				s.batch = nil // re-adopted via onPrePrepare below
				s.digest = types.Digest{}
			} else {
				batch = noopBatch(r.cfg.Instance, r.pview, seq)
			}
			pp := &types.PrePrepare{Instance: r.cfg.Instance, PView: r.pview, Seq: seq, Batch: batch}
			r.ctx.Broadcast(pp)
			r.onPrePrepare(r.ctx.ID(), pp)
		}
	}
	for pv := range r.vcVotes {
		if pv <= r.pview {
			delete(r.vcVotes, pv)
		}
	}
	r.lastProgress = r.ctx.Now()
}

// noopBatch fills a slot whose payload was lost with the crashed primary;
// the execution layer skips no-ops, and the client's retry resubmits the
// original request (§5 of the SpotLess paper's client model).
func noopBatch(instance int32, pview types.View, seq uint64) *types.Batch {
	var buf [20]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(instance))
	binary.LittleEndian.PutUint64(buf[4:], uint64(pview))
	binary.LittleEndian.PutUint64(buf[12:], seq)
	return &types.Batch{ID: sha256.Sum256(buf[:]), NoOp: true}
}
