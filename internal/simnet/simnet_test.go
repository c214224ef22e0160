package simnet

import (
	"testing"
	"testing/quick"
	"time"

	"spotless/internal/protocol"
	"spotless/internal/types"
)

// echoProto records receptions and can reply.
type echoProto struct {
	ctx      protocol.Context
	got      []types.Message
	gotAt    []time.Duration
	timers   []protocol.TimerTag
	timersAt []time.Duration
}

func (p *echoProto) Start() {}
func (p *echoProto) HandleMessage(from types.NodeID, m types.Message) {
	p.got = append(p.got, m)
	p.gotAt = append(p.gotAt, p.ctx.Now())
}
func (p *echoProto) HandleTimer(tag protocol.TimerTag) {
	p.timers = append(p.timers, tag)
	p.timersAt = append(p.timersAt, p.ctx.Now())
}

type starter struct {
	echoProto
	run func(ctx protocol.Context)
}

func (s *starter) Start() { s.run(s.ctx) }

// TestDeliveryLatencyModel: a single message experiences propagation +
// serialization + buffering delay.
func TestDeliveryLatencyModel(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Jitter = 0
	cfg.BufferDelay = 100 * time.Microsecond
	cfg.BaseHandlerCost = 0
	sim := New(cfg)
	sender := &starter{}
	sender.ctx = sim.Context(0)
	sender.run = func(ctx protocol.Context) { ctx.Send(1, &types.Ask{}) }
	recv := &echoProto{ctx: sim.Context(1)}
	sim.SetProtocol(0, sender)
	sim.SetProtocol(1, recv)
	sim.Start()
	sim.Run(10 * time.Millisecond)
	if len(recv.got) != 1 {
		t.Fatalf("got %d messages, want 1", len(recv.got))
	}
	at := recv.gotAt[0]
	ser := time.Duration(float64(types.ControlMsgSize) / (cfg.BandwidthMbps * 1e6 / 8) * float64(time.Second))
	min := cfg.BufferDelay + localDelay
	max := min + ser + 200*time.Microsecond
	if at < min || at > max {
		t.Fatalf("delivery at %v, want within [%v, %v]", at, min, max)
	}
}

// TestBandwidthSerialization: back-to-back large messages queue on the
// sender's egress link, spacing arrivals by size/bandwidth.
func TestBandwidthSerialization(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Jitter = 0
	cfg.BandwidthMbps = 8 // 1 MB/s → 1 ms per KB
	cfg.BufferBytes = 1   // no coalescing
	cfg.BaseHandlerCost = 0
	sim := New(cfg)
	big := &types.Request{Batch: &types.Batch{Txns: make([]types.Transaction, 60)}} // ≈1332 B
	sender := &starter{}
	sender.ctx = sim.Context(0)
	sender.run = func(ctx protocol.Context) {
		ctx.Send(1, big)
		ctx.Send(1, big)
	}
	recv := &echoProto{ctx: sim.Context(1)}
	sim.SetProtocol(0, sender)
	sim.SetProtocol(1, recv)
	sim.Start()
	sim.Run(100 * time.Millisecond)
	if len(recv.got) != 2 {
		t.Fatalf("got %d messages, want 2", len(recv.got))
	}
	gap := recv.gotAt[1] - recv.gotAt[0]
	wantGap := time.Duration(float64(big.WireSize()) / (1 << 20) * float64(time.Second))
	if gap < wantGap*8/10 || gap > wantGap*12/10 {
		t.Fatalf("serialization gap %v, want ≈%v", gap, wantGap)
	}
}

// TestMessageBufferingCoalesces: many small messages sent together ride one
// packet.
func TestMessageBufferingCoalesces(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BufferBytes = 1 << 20
	cfg.BufferDelay = time.Millisecond
	sim := New(cfg)
	sender := &starter{}
	sender.ctx = sim.Context(0)
	sender.run = func(ctx protocol.Context) {
		for i := 0; i < 10; i++ {
			ctx.Send(1, &types.Ask{Instance: int32(i)})
		}
	}
	recv := &echoProto{ctx: sim.Context(1)}
	sim.SetProtocol(0, sender)
	sim.SetProtocol(1, recv)
	sim.Start()
	sim.Run(50 * time.Millisecond)
	st := sim.Stats()
	if st.PacketsSent != 1 {
		t.Fatalf("packets: got %d want 1 (buffering)", st.PacketsSent)
	}
	if len(recv.got) != 10 {
		t.Fatalf("messages: got %d want 10", len(recv.got))
	}
}

// TestTimerOrdering: timers fire in order at their deadlines.
func TestTimerOrdering(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.BaseHandlerCost = 0
	sim := New(cfg)
	p := &starter{}
	p.ctx = sim.Context(0)
	p.run = func(ctx protocol.Context) {
		ctx.SetTimer(5*time.Millisecond, protocol.TimerTag{Kind: 2})
		ctx.SetTimer(1*time.Millisecond, protocol.TimerTag{Kind: 1})
		ctx.SetTimer(9*time.Millisecond, protocol.TimerTag{Kind: 3})
	}
	sim.SetProtocol(0, p)
	sim.Start()
	sim.Run(20 * time.Millisecond)
	if len(p.timers) != 3 {
		t.Fatalf("timers fired: %d, want 3", len(p.timers))
	}
	for i, want := range []int{1, 2, 3} {
		if p.timers[i].Kind != want {
			t.Fatalf("timer order: got %v", p.timers)
		}
	}
	if p.timersAt[0] < time.Millisecond || p.timersAt[2] < 9*time.Millisecond {
		t.Fatalf("timer deadlines violated: %v", p.timersAt)
	}
}

// TestDownNodeDropsEverything: a downed node neither receives nor sends.
func TestDownNodeDropsEverything(t *testing.T) {
	cfg := DefaultConfig(2)
	sim := New(cfg)
	sender := &starter{}
	sender.ctx = sim.Context(0)
	sender.run = func(ctx protocol.Context) { ctx.Send(1, &types.Ask{}) }
	recv := &echoProto{ctx: sim.Context(1)}
	sim.SetProtocol(0, sender)
	sim.SetProtocol(1, recv)
	sim.SetDown(1, true)
	sim.Start()
	sim.Run(10 * time.Millisecond)
	if len(recv.got) != 0 {
		t.Fatal("downed node processed a message")
	}
}

// TestBlockedLinkAndHeal: partitions drop traffic until unblocked.
func TestBlockedLinkAndHeal(t *testing.T) {
	cfg := DefaultConfig(2)
	sim := New(cfg)
	sender := &starter{}
	sender.ctx = sim.Context(0)
	sender.run = func(ctx protocol.Context) { ctx.Send(1, &types.Ask{Instance: 1}) }
	recv := &echoProto{ctx: sim.Context(1)}
	sim.SetProtocol(0, sender)
	sim.SetProtocol(1, recv)
	sim.BlockLink(0, 1, true)
	sim.Start()
	sim.Run(5 * time.Millisecond)
	if len(recv.got) != 0 {
		t.Fatal("blocked link delivered")
	}
	sim.BlockLink(0, 1, false)
	sim.Schedule(sim.Now(), func() {
		sim.node(0).ctx.Send(1, &types.Ask{Instance: 2})
	})
	sim.Run(20 * time.Millisecond)
	// The first message was dropped permanently; only the second arrives.
	if len(recv.got) != 1 {
		t.Fatalf("after heal: got %d messages, want 1", len(recv.got))
	}
}

// TestDeterminism: identical configs and seeds produce identical event
// counts and stats (property-based over seeds).
func TestDeterminism(t *testing.T) {
	runOnce := func(seed int64) Stats {
		cfg := DefaultConfig(3)
		cfg.Seed = seed
		cfg.Jitter = 100 * time.Microsecond
		sim := New(cfg)
		p := &starter{}
		p.ctx = sim.Context(0)
		p.run = func(ctx protocol.Context) {
			for i := 0; i < 50; i++ {
				ctx.Broadcast(&types.Ask{Instance: int32(i)})
				ctx.SetTimer(time.Duration(i)*100*time.Microsecond, protocol.TimerTag{Kind: i})
			}
		}
		sim.SetProtocol(0, p)
		sim.SetProtocol(1, &echoProto{ctx: sim.Context(1)})
		sim.SetProtocol(2, &echoProto{ctx: sim.Context(2)})
		sim.Start()
		sim.Run(100 * time.Millisecond)
		return sim.Stats()
	}
	prop := func(seed int64) bool {
		a, b := runOnce(seed), runOnce(seed)
		return a.MessagesSent == b.MessagesSent && a.PacketsSent == b.PacketsSent &&
			a.BytesSent == b.BytesSent && a.EventsRun == b.EventsRun && a.TimersFired == b.TimersFired
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestRegionDelays: cross-region delivery honors the delay matrix.
func TestRegionDelays(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Jitter = 0
	cfg.BufferDelay = 0
	cfg.Regions = []int{0, 1}
	cfg.RegionDelayMs = [][]float64{{0.1, 30}, {30, 0.1}}
	sim := New(cfg)
	sender := &starter{}
	sender.ctx = sim.Context(0)
	sender.run = func(ctx protocol.Context) { ctx.Send(1, &types.Ask{}) }
	recv := &echoProto{ctx: sim.Context(1)}
	sim.SetProtocol(0, sender)
	sim.SetProtocol(1, recv)
	sim.Start()
	sim.Run(100 * time.Millisecond)
	if len(recv.got) != 1 {
		t.Fatal("no delivery")
	}
	if recv.gotAt[0] < 30*time.Millisecond {
		t.Fatalf("cross-region delivery at %v, want ≥ 30ms", recv.gotAt[0])
	}
}

// TestCPUQueueing: expensive handlers delay subsequent processing
// (latency = full cost; capacity = cores × time).
func TestCPUQueueing(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Cores = 2
	cfg.BaseHandlerCost = 10 * time.Millisecond
	cfg.BufferBytes = 1
	cfg.Jitter = 0
	sim := New(cfg)
	sender := &starter{}
	sender.ctx = sim.Context(0)
	sender.run = func(ctx protocol.Context) {
		for i := 0; i < 4; i++ {
			ctx.Send(1, &types.Ask{Instance: int32(i)})
		}
	}
	recv := &echoProto{ctx: sim.Context(1)}
	sim.SetProtocol(0, sender)
	sim.SetProtocol(1, recv)
	sim.Start()
	sim.Run(200 * time.Millisecond)
	if len(recv.got) != 4 {
		t.Fatalf("got %d messages", len(recv.got))
	}
	// With 2 cores and 10 ms per handler, the 4th message starts ≥ 15 ms
	// after the 1st (10ms/2 per accumulated slot).
	spread := recv.gotAt[3] - recv.gotAt[0]
	if spread < 10*time.Millisecond {
		t.Fatalf("CPU queueing spread %v, want ≥ 10ms", spread)
	}
}

// shardedEcho is a minimal protocol.ShardedProtocol: Sync messages route by
// their Instance field, receptions record their handling start time, and
// every reception posts a completion onto the ordering shard.
type shardedEcho struct {
	echoProto
	m     int
	post  protocol.ShardPoster
	onOrd []time.Duration // ordering-shard post execution times
}

func (p *shardedEcho) ShardCount() int { return p.m }
func (p *shardedEcho) InstanceOf(msg types.Message) int32 {
	if s, ok := msg.(*types.Sync); ok {
		return s.Instance
	}
	return protocol.OrderingShard
}
func (p *shardedEcho) BindShards(post protocol.ShardPoster) { p.post = post }
func (p *shardedEcho) HandleMessage(from types.NodeID, m types.Message) {
	p.echoProto.HandleMessage(from, m)
	if p.post != nil {
		p.post.PostShard(protocol.OrderingShard, func() {
			p.onOrd = append(p.onOrd, p.ctx.Now())
		})
	}
}

// TestInstanceLanesRunConcurrently: under the instance-parallel model,
// handlers of different instances do not queue behind each other while
// handlers of one instance stay serialized — and cross-shard posts all
// execute, serialized, on the ordering lane.
func TestInstanceLanesRunConcurrently(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Jitter = 0
	cfg.BufferBytes = 1 // flush every message as its own packet
	cfg.BufferDelay = 0
	cfg.BaseHandlerCost = time.Millisecond
	cfg.InstanceWorkers = 2
	sim := New(cfg)

	sender := &starter{}
	sender.ctx = sim.Context(0)
	sender.run = func(ctx protocol.Context) {
		for i := 0; i < 2; i++ {
			ctx.Send(1, &types.Sync{Instance: 0})
			ctx.Send(1, &types.Sync{Instance: 1})
		}
	}
	recv := &shardedEcho{m: 2}
	recv.ctx = sim.Context(1)
	sim.SetProtocol(0, sender)
	sim.SetProtocol(1, recv)
	if recv.post == nil {
		t.Fatal("sharded protocol was not bound to the lane poster")
	}
	sim.Start()
	sim.Run(100 * time.Millisecond)

	if len(recv.got) != 4 {
		t.Fatalf("got %d messages, want 4", len(recv.got))
	}
	// Two lanes: the first message of each instance starts immediately, the
	// second queues behind its lane's 1 ms handler — so exactly two handlers
	// start within the first half millisecond. A serial loop would start
	// only one; the aggregate model would pipeline all four.
	first, latest := recv.gotAt[0], recv.gotAt[0]
	for _, at := range recv.gotAt {
		if at < first {
			first = at
		}
		if at > latest {
			latest = at
		}
	}
	early := 0
	for _, at := range recv.gotAt {
		if at < first+500*time.Microsecond {
			early++
		}
	}
	if early != 2 {
		t.Fatalf("%d handlers started within 0.5 ms of the first, want 2 (one per lane); times: %v", early, recv.gotAt)
	}
	if latest > first+1500*time.Microsecond {
		t.Fatalf("lanes serialized too much: handlers spanned %v", latest-first)
	}
	if len(recv.onOrd) != 4 {
		t.Fatalf("ordering lane executed %d posts, want 4", len(recv.onOrd))
	}
}
