// Package rcc implements the RCC baseline of §6.2: Resilient Concurrent
// Consensus (Gupta et al., ICDE 2021). RCC turns Pbft into a concurrent
// consensus protocol by running m instances — each with a fixed, distinct
// primary — and ordering decisions round-robin across instances. Failed
// primaries are detected by complaints and their instances are suspended
// for an exponentially increasing penalty, which produces the throughput
// oscillations of Figure 12.
package rcc

import (
	"time"

	"spotless/internal/pbft"
	"spotless/internal/protocol"
	"spotless/internal/types"
)

// Config parameterizes an RCC replica.
type Config struct {
	N, F      int
	Instances int
	// Window is the per-instance out-of-order depth.
	Window int
}

const (
	// detectInterval is the failure-detector period.
	detectInterval = 150 * time.Millisecond
	// basePenalty is the first suspension length; it doubles per repeated
	// failure of the same instance ("exponentially increasing number of
	// rounds", §1).
	basePenalty = 500 * time.Millisecond
)

// DefaultConfig returns the tuned baseline configuration.
func DefaultConfig(n, m int) Config {
	return Config{
		N:         n,
		F:         (n - 1) / 3,
		Instances: m,
		Window:    64,
	}
}

type instanceState struct {
	pb         *pbft.Replica
	queue      []queued
	lastSeen   uint64 // delivery frontier at the previous detector tick
	stallTicks int    // consecutive detector ticks without progress
	suspended  bool
	resumeAt   time.Duration
	graceUntil time.Duration // no complaints right after a resume
	penalty    time.Duration
	complaints map[uint64]map[types.NodeID]bool // epoch -> senders
	epoch      uint64
}

type queued struct {
	seq    uint64
	batch  *types.Batch
	digest types.Digest
}

// Replica is one RCC replica coordinating m Pbft instances.
type Replica struct {
	ctx  protocol.Context
	cfg  Config
	inst []*instanceState

	// Delivered counts globally ordered batches (testing).
	Delivered uint64
}

const timerDetect = 101

// New creates an RCC replica.
func New(ctx protocol.Context, cfg Config) *Replica {
	if cfg.Instances < 1 {
		cfg.Instances = 1
	}
	r := &Replica{ctx: ctx, cfg: cfg}
	for i := 0; i < cfg.Instances; i++ {
		pcfg := pbft.Config{
			N:               cfg.N,
			F:               cfg.F,
			Instance:        int32(i),
			PrimaryBase:     types.NodeID(i), // fixed primary per instance
			Window:          cfg.Window,
			ProgressTimeout: detectInterval,
		}
		is := &instanceState{
			pb:         pbft.New(ctx, pcfg),
			complaints: make(map[uint64]map[types.NodeID]bool),
			penalty:    basePenalty,
		}
		idx := i
		is.pb.OnDeliver = func(seq uint64, batch *types.Batch, digest types.Digest) {
			r.onDeliver(idx, seq, batch, digest)
		}
		r.inst = append(r.inst, is)
	}
	return r
}

// Start implements protocol.Protocol.
func (r *Replica) Start() {
	for _, is := range r.inst {
		is.pb.Start()
	}
	r.ctx.SetTimer(detectInterval, protocol.TimerTag{Kind: timerDetect})
}

// HandleMessage implements protocol.Protocol.
func (r *Replica) HandleMessage(from types.NodeID, msg types.Message) {
	if c, ok := msg.(*types.Complaint); ok {
		r.onComplaint(from, c)
		return
	}
	if i, ok := instanceOf(msg); ok && int(i) < len(r.inst) {
		r.inst[i].pb.HandleMessage(from, msg)
	}
}

// IngressJob implements protocol.IngressVerifier. RCC inherits Pbft's
// MAC-only authentication: neither Complaints nor the per-instance Pbft
// traffic carry digital signatures, so there is nothing to fan out to the
// verification pipeline (authentication is transport-level, like pbft).
func (r *Replica) IngressJob(from types.NodeID, msg types.Message) (protocol.VerifyJob, bool) {
	return protocol.VerifyJob{}, false
}

var (
	_ protocol.Protocol        = (*Replica)(nil)
	_ protocol.IngressVerifier = (*Replica)(nil)
)

func instanceOf(msg types.Message) (int32, bool) {
	switch m := msg.(type) {
	case *types.PrePrepare:
		return m.Instance, true
	case *types.Prepare:
		return m.Instance, true
	case *types.PbftCommit:
		return m.Instance, true
	case *types.ViewChange:
		return m.Instance, true
	case *types.NewPView:
		return m.Instance, true
	}
	return 0, false
}

// HandleTimer implements protocol.Protocol.
func (r *Replica) HandleTimer(tag protocol.TimerTag) {
	if tag.Kind == timerDetect {
		r.detect()
		r.ctx.SetTimer(detectInterval, protocol.TimerTag{Kind: timerDetect})
		return
	}
	if int(tag.Instance) < len(r.inst) {
		r.inst[tag.Instance].pb.HandleTimer(tag)
	}
}

// detect is RCC's failure detector: an instance whose frontier stalls for
// consecutive ticks while the pack pulls far ahead draws a complaint;
// resumption re-arms detection (after a grace period) with a doubled
// penalty. The thresholds are deliberately conservative: a transient lag
// must not trigger the exponential penalty, or healthy instances cascade
// into suspension at scale.
func (r *Replica) detect() {
	stallGap := uint64(2*r.cfg.Window + 8)
	now := r.ctx.Now()
	var maxLW uint64
	for _, is := range r.inst {
		if lw := is.pb.LowWater(); lw > maxLW {
			maxLW = lw
		}
	}
	for i, is := range r.inst {
		lw := is.pb.LowWater()
		if is.suspended {
			if now >= is.resumeAt {
				is.suspended = false
				is.pb.Suspend(false)
				is.lastSeen = is.pb.LowWater()
				is.stallTicks = 0
				is.graceUntil = now + 4*detectInterval
			}
			continue
		}
		if lw == is.lastSeen && maxLW >= lw+stallGap && now >= is.graceUntil {
			is.stallTicks++
			if is.stallTicks >= 2 {
				c := &types.Complaint{Instance: int32(i), Round: is.epoch}
				r.ctx.Broadcast(c)
				r.onComplaint(r.ctx.ID(), c)
			}
		} else if lw != is.lastSeen {
			is.stallTicks = 0
		}
		is.lastSeen = lw
	}
	r.drain()
}

func (r *Replica) onComplaint(from types.NodeID, m *types.Complaint) {
	if int(m.Instance) >= len(r.inst) {
		return
	}
	is := r.inst[m.Instance]
	if is.suspended || m.Round != is.epoch {
		return
	}
	set := is.complaints[m.Round]
	if set == nil {
		set = make(map[types.NodeID]bool)
		is.complaints[m.Round] = set
	}
	if set[from] {
		return
	}
	set[from] = true
	if len(set) < 2*r.cfg.F+1 {
		return
	}
	// Quorum of complaints: suspend the instance for the current penalty
	// and double it for the next failure.
	delete(is.complaints, m.Round)
	is.epoch++
	is.suspended = true
	is.resumeAt = r.ctx.Now() + is.penalty
	is.penalty *= 2
	is.pb.Suspend(true)
	r.drain()
}

// onDeliver funnels per-instance commits into the cross-instance round-robin
// total order.
func (r *Replica) onDeliver(idx int, seq uint64, batch *types.Batch, digest types.Digest) {
	is := r.inst[idx]
	is.queue = append(is.queue, queued{seq: seq, batch: batch, digest: digest})
	r.drain()
}

// drain executes the cross-instance total order: decision (seq, inst) runs
// once every live instance has decided through seq (round-based ordering,
// §4.1 of the RCC paper); suspended instances neither block nor wait.
func (r *Replica) drain() {
	for {
		minF := ^uint64(0)
		for _, is := range r.inst {
			if is.suspended {
				continue
			}
			if lw := is.pb.LowWater(); lw < minF {
				minF = lw
			}
		}
		best := -1
		var bestSeq uint64
		for i, is := range r.inst {
			if len(is.queue) == 0 {
				continue
			}
			q := is.queue[0]
			if !is.suspended && q.seq >= minF {
				continue // wait for slower live instances (round gate)
			}
			if best == -1 || q.seq < bestSeq {
				best = i
				bestSeq = q.seq
			}
		}
		if best == -1 {
			return
		}
		is := r.inst[best]
		q := is.queue[0]
		is.queue = is.queue[1:]
		r.Delivered++
		r.ctx.Deliver(types.Commit{Instance: int32(best), View: types.View(q.seq), Batch: q.batch, Proposal: q.digest})
	}
}
