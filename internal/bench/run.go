// Package bench is the evaluation harness: it reconstructs every experiment
// of §6.3 (all panels of Figures 7–15 plus the Figure 1 complexity table) on
// the discrete-event simulator, with one Options struct per data point and
// one exported function per figure, plus ablations for the reproduction's
// own design choices (fast path, buffering, the verification pipeline, and
// the checkpoint/state-transfer subsystem with its kill-and-rejoin
// scenario).
package bench

import (
	"fmt"
	"sort"
	"time"

	"spotless/internal/core"
	"spotless/internal/dissem"
	"spotless/internal/hotstuff"
	"spotless/internal/loadgen"
	"spotless/internal/narwhal"
	"spotless/internal/pbft"
	"spotless/internal/protocol"
	"spotless/internal/rcc"
	"spotless/internal/simnet"
	"spotless/internal/types"
)

// Protocol names the five evaluated consensus protocols.
type Protocol string

// The evaluated protocols (§6.2).
const (
	SpotLess  Protocol = "SpotLess"
	Pbft      Protocol = "Pbft"
	RCC       Protocol = "RCC"
	HotStuff  Protocol = "HotStuff"
	NarwhalHS Protocol = "Narwhal-HS"
)

// AllProtocols lists the protocols in the paper's plotting order.
var AllProtocols = []Protocol{SpotLess, HotStuff, RCC, Pbft, NarwhalHS}

// Options describes one experiment data point.
type Options struct {
	Protocol  Protocol
	N         int
	Instances int // 0: protocol default (n for SpotLess/RCC)

	BatchSize   int // txns per batch (paper default 100)
	TxnValueSz  int // per-txn payload bytes (transaction-size experiment)
	Outstanding int // closed-loop batches per instance (load knob, Fig 10); digest ordering splits it over the n origin lanes

	// TuneBatchSize pins the SpotLess timer auto-tuning to a reference
	// batch size instead of BatchSize (0). The dissemination sweep uses it
	// to model the operationally honest scenario: a cluster tuned at the
	// baseline workload whose payloads then grow 10–100x without a retune.
	TuneBatchSize int

	Warmup  time.Duration
	Measure time.Duration
	Seed    int64

	// Resource model overrides (0 = calibrated default).
	Cores         int
	BandwidthMbps float64
	RegionCount   int // ≥2 distributes replicas over WAN regions (Fig 14c,d)

	// VerifyCores bounds the verification pipeline's virtual core pool
	// (crypto.CostModel.Cores). 0 inherits the node core count; 1
	// serializes every signature check on the protocol event loop as the
	// pre-pipeline model did (absolute figures still differ slightly from
	// the seed: deliveries now charge a MAC and batches verify fully).
	VerifyCores int

	// InstanceWorkers > 1 selects the simulator's instance-parallel model
	// (simnet.Config.InstanceWorkers): each replica's m instances execute
	// on per-shard lanes — one modelled core each — behind a serialized
	// ordering lane, mirroring runtime -instance-workers. 1 models the
	// classic single event loop (every handler serialized on one lane);
	// 0 keeps the calibrated aggregate-capacity model.
	InstanceWorkers int

	// Failure / attack injection.
	Failures int             // number of faulty replicas
	FailAt   time.Duration   // when they fail (0: from the start)
	Attack   core.AttackMode // AttackNone ⇒ non-responsive (A1)
	// ReviveAt restarts the downed replicas (Attack == AttackNone only)
	// with fresh, empty state at the given time — the crash/recovery
	// scenario. Recovery is measured into Result.ReviveRecovery.
	ReviveAt time.Duration

	// Checkpoint subsystem knobs (SpotLess; see core.Config).
	CheckpointInterval int // 0 disables (seed behaviour)
	RetentionViews     int // 0 keeps the protocol default window

	TimelineBucket time.Duration // >0 records a throughput timeline (Fig 12)

	// Dissem enables SpotLess digest ordering: payloads are disseminated
	// ahead of consensus by internal/dissem (one stream per ORIGIN replica,
	// like Narwhal-HS), proposals carry constant-size digest references, and
	// delivery resolves them back through the dissemination store.
	Dissem bool

	// DissemCode selects erasure-coded dissemination (dissem.Config.CodeK,
	// requires Dissem): origins push one coded chunk per peer instead of the
	// full payload, cutting origin egress to ~(n−1)/k of the batch. 0 keeps
	// the full push.
	DissemCode int

	// Ablation knobs (design-choice benchmarks; see the ablation-* figures).
	FastPath     bool // SpotLess geo fast path (§6.1)
	NoBuffering  bool // disable ResilientDB-style message buffering (§6.1)
	SkipQCVerify bool // HotStuff without backup-side QC verification
}

// Result is one measured data point.
type Result struct {
	Options
	Throughput   float64 // completed txn/s
	AvgLatency   time.Duration
	P50Latency   time.Duration
	P99Latency   time.Duration
	Batches      uint64
	MsgsPerBatch float64 // protocol messages sent per decided batch
	Timeline     []loadgen.TimelinePoint

	// Retained consensus bookkeeping at the end of the run, maximum across
	// SpotLess replicas (proposal-map and view-map entries) — the state the
	// checkpoint GC bounds.
	StateProposals int
	StateViews     int
	// ReviveRecovery is the time from ReviveAt until the last revived
	// replica executed its first post-revival batch (0: never recovered).
	ReviveRecovery time.Duration

	// Dissemination egress accounting (Dissem runs only): measurement-window
	// deltas of internal/dissem counters summed over replicas.
	DissemPushedBytes uint64 // origin push egress (full payloads or chunks)
	Reconstructions   uint64 // payloads decoded from k chunks (coded mode)
	ReconstructFails  uint64 // poisoned deliveries (coded mode)
	// PushBytesPerBatch is origin push egress per delivered batch — the
	// quantity the erasure-coding claim is about: full push spends
	// (n−1)·|B| here, coded dissemination ~(n−1)/k·|B| plus commitments.
	PushBytesPerBatch float64
}

// RegionNames are the paper's deployment regions (§6.3), indexed like the
// asymmetric delay matrix.
var RegionNames = []string{"Oregon", "N. Virginia", "London", "Zurich"}

// WANDelayMs exposes the asymmetric one-way delay matrix for display
// (examples/georeplication).
func WANDelayMs() [][]float64 { return oneWayDelayMs }

// oneWayDelayMs is the one-way propagation between the paper's regions
// (Oregon, N. Virginia, London, Zurich), §6.3.
var oneWayDelayMs = [][]float64{
	{0.25, 30, 65, 70},
	{30, 0.25, 38, 43},
	{65, 38, 0.25, 8},
	{70, 43, 8, 0.25},
}

// quickTrim shortens default measurement windows; the repository-level
// benchmarks enable it so `go test -bench=.` stays minutes-scale while
// cmd/spotless-bench keeps the full windows.
var quickTrim bool

// SetQuickTrim toggles shortened measurement windows for CI-sized runs.
func SetQuickTrim(on bool) { quickTrim = on }

// Run executes one experiment point and returns its measurements.
func Run(o Options) Result {
	if o.N == 0 {
		o.N = 4
	}
	if o.BatchSize == 0 {
		o.BatchSize = 100
	}
	if o.TxnValueSz == 0 {
		o.TxnValueSz = 33 // ≈ 48 B/txn on the wire (paper's smallest size)
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	n := o.N
	f := (n - 1) / 3
	m := o.Instances
	if m == 0 {
		switch o.Protocol {
		case SpotLess, RCC:
			m = n
		default:
			m = 1
		}
	}
	// Closed-loop credits per source stream: concurrent protocols spread
	// load over m streams; single-primary protocols need a deep pipeline on
	// their one stream.
	if o.Outstanding == 0 {
		switch o.Protocol {
		case Pbft, HotStuff:
			o.Outstanding = 128
		case NarwhalHS:
			o.Outstanding = 32
		default:
			o.Outstanding = 8
		}
	}
	streams := m
	if o.Protocol == NarwhalHS || (o.Protocol == SpotLess && o.Dissem) {
		streams = n
	}
	if o.Measure == 0 {
		o.Measure = 400 * time.Millisecond
		if quickTrim {
			o.Measure = 150 * time.Millisecond
		}
	}
	if o.Warmup == 0 {
		// The warmup must exceed the closed-loop steady-state latency
		// (outstanding work / execution rate), or the measurement window
		// catches the pipeline still filling.
		est := time.Duration(float64(streams*o.Outstanding*o.BatchSize) / 340000 * 1.5 * float64(time.Second))
		o.Warmup = 200*time.Millisecond + est
		if o.Protocol == NarwhalHS {
			// Narwhal's ramp is dominated by its lane-ordering latency
			// (each worker's batches wait ~n ordering views).
			o.Warmup += time.Duration(n) * 30 * time.Millisecond
		}
	}

	scfg := simnet.DefaultConfig(n)
	scfg.Seed = o.Seed
	if o.Cores > 0 {
		scfg.Cores = o.Cores
	}
	if o.VerifyCores > 0 {
		scfg.Costs.Cores = o.VerifyCores
	}
	scfg.InstanceWorkers = o.InstanceWorkers
	if o.BandwidthMbps > 0 {
		scfg.BandwidthMbps = o.BandwidthMbps
	}
	if o.RegionCount > 1 {
		k := o.RegionCount
		if k > 4 {
			k = 4
		}
		scfg.Regions = make([]int, n)
		for i := range scfg.Regions {
			scfg.Regions[i] = i * k / n
		}
		scfg.RegionDelayMs = oneWayDelayMs
	}
	if o.NoBuffering {
		scfg.BufferBytes = 1
		scfg.BufferDelay = 0
	}
	sim := simnet.New(scfg)

	// Client load: one stream per sourcing instance — or per origin replica
	// when dissemination owns the source. Under digest ordering the n
	// origin lanes share Outstanding (at least one credit each), so the
	// cluster keeps Outstanding batches in flight whatever n is.
	credits := o.Outstanding
	if o.Protocol == SpotLess && o.Dissem {
		credits = max(1, o.Outstanding/n)
	}
	wl := loadgen.DefaultWorkload(o.BatchSize)
	wl.TxnValueSz = o.TxnValueSz
	wl.Seed = o.Seed
	src := loadgen.NewSource(streams, credits, wl)
	sim.SetBatchSource(src)
	col := loadgen.NewCollector(sim.Context(simnet.ClientNode), src, f, o.TimelineBucket)
	col.MeasureStart = o.Warmup
	col.MeasureEnd = o.Warmup + o.Measure
	sim.SetProtocol(simnet.ClientNode, col)

	faulty := make(map[types.NodeID]bool, o.Failures)
	for i := 0; i < o.Failures; i++ {
		faulty[types.NodeID(n-1-i)] = true // backups first: Pbft's primary is 0
	}
	victims := make(map[types.NodeID]bool, f)
	for i := 0; i < f; i++ {
		victims[types.NodeID(i)] = true // non-faulty victims for A2/A3
	}

	protos := buildReplica(sim, o, m, faulty, victims)

	// Failure injection.
	if o.Failures > 0 && o.Attack == core.AttackNone {
		at := o.FailAt
		for id := range faulty {
			fid := id
			sim.Schedule(at, func() { sim.SetDown(fid, true) })
		}
	}
	// Crash-recovery: bring the downed replicas back with fresh state and
	// time their first post-revival execution (state-transfer rejoin).
	var reviveDone time.Duration
	if o.ReviveAt > 0 && o.Failures > 0 && o.Attack == core.AttackNone {
		pending := make(map[types.NodeID]bool, len(faulty))
		for id := range faulty {
			pending[id] = true
		}
		sim.SetDeliverHook(func(node types.NodeID, c types.Commit) {
			if pending[node] && sim.Now() >= o.ReviveAt {
				delete(pending, node)
				if len(pending) == 0 {
					reviveDone = sim.Now()
				}
			}
		})
		// Deterministic revival order (map iteration would vary run to run).
		order := make([]types.NodeID, 0, len(faulty))
		for id := range faulty {
			order = append(order, id)
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		for _, id := range order {
			fid := id
			sim.Schedule(o.ReviveAt, func() {
				sim.Restart(fid, func(ctx protocol.Context) protocol.Protocol {
					p := buildOne(ctx, o, m, fid, faulty, victims)
					protos[fid] = p
					return p
				})
			})
		}
	}

	sim.Start()
	sim.Run(o.Warmup)
	msgsBefore := sim.Stats().MessagesSent
	dissemBefore := sumDissemStats(protos)
	sim.Run(o.Warmup + o.Measure)
	msgsDuring := sim.Stats().MessagesSent - msgsBefore
	dissemDuring := sumDissemStats(protos)

	// A revived replica may still be mid-recovery when the measurement
	// window closes; run on (metrics are frozen at MeasureEnd) until it
	// recovers or a deadline passes, so ReviveRecovery is observed. Gated
	// exactly like the hook installation above — without a hook,
	// reviveDone can never fire and the loop would burn the full deadline.
	if o.ReviveAt > 0 && o.Failures > 0 && o.Attack == core.AttackNone {
		deadline := o.Warmup + o.Measure + 2*time.Second
		for reviveDone == 0 && sim.Now() < deadline {
			sim.Run(sim.Now() + 50*time.Millisecond)
		}
	}

	res := Result{Options: o, Throughput: col.Throughput(), Batches: col.BatchesDone}
	for _, p := range protos {
		if rep, ok := p.(*core.Replica); ok {
			props, views := rep.StateFootprint()
			if props > res.StateProposals {
				res.StateProposals = props
			}
			if views > res.StateViews {
				res.StateViews = views
			}
		}
	}
	if o.ReviveAt > 0 && reviveDone > 0 {
		res.ReviveRecovery = reviveDone - o.ReviveAt
	}
	res.AvgLatency, res.P50Latency, res.P99Latency = col.Latency()
	if col.BatchesDone > 0 {
		res.MsgsPerBatch = float64(msgsDuring) / float64(col.BatchesDone)
	}
	if o.Dissem {
		res.DissemPushedBytes = dissemDuring.PushedBytes - dissemBefore.PushedBytes
		res.Reconstructions = dissemDuring.Reconstructions - dissemBefore.Reconstructions
		res.ReconstructFails = dissemDuring.ReconstructFails - dissemBefore.ReconstructFails
		if col.BatchesDone > 0 {
			res.PushBytesPerBatch = float64(res.DissemPushedBytes) / float64(col.BatchesDone)
		}
	}
	if o.TimelineBucket > 0 {
		// Run past the measurement window so the timeline shows recovery.
		sim.Run(o.Warmup + o.Measure + o.TimelineBucket)
		res.Timeline = col.Timeline()
	}
	return res
}

// sumDissemStats aggregates the dissemination-layer counters across the
// cluster's replicas (zero when the run doesn't use digest ordering).
func sumDissemStats(protos []protocol.Protocol) dissem.Stats {
	var tot dissem.Stats
	for _, p := range protos {
		rep, ok := p.(*core.Replica)
		if !ok || rep.DissemLayer() == nil {
			continue
		}
		s := rep.DissemLayer().Stats()
		tot.PushedBytes += s.PushedBytes
		tot.Reconstructions += s.Reconstructions
		tot.ReconstructFails += s.ReconstructFails
	}
	return tot
}

// buildReplica attaches one protocol replica per node and returns them
// indexed by node id.
func buildReplica(sim *simnet.Simulation, o Options, m int, faulty, victims map[types.NodeID]bool) []protocol.Protocol {
	protos := make([]protocol.Protocol, o.N)
	for i := 0; i < o.N; i++ {
		id := types.NodeID(i)
		p := buildOne(sim.Context(id), o, m, id, faulty, victims)
		protos[i] = p
		sim.SetProtocol(id, p)
	}
	return protos
}

// buildOne constructs the protocol replica hosted at one node — also the
// constructor used when a crashed replica is revived with fresh state.
func buildOne(ctx protocol.Context, o Options, m int, id types.NodeID, faulty, victims map[types.NodeID]bool) protocol.Protocol {
	n := o.N
	switch o.Protocol {
	case SpotLess:
		cfg := core.DefaultConfig(n, m)
		tune := estimateViewCycle(o, m)
		cfg.InitialRecordingTimeout = tune
		cfg.InitialCertifyTimeout = tune
		// The adaptive halving rule (§3.5) must not sink the timers
		// below the real view duration, or spurious ∅-claims cascade.
		cfg.MinTimeout = tune / 2
		cfg.RetransmitInterval = max(300*time.Millisecond, 8*tune)
		cfg.FastPath = o.FastPath
		cfg.CheckpointInterval = o.CheckpointInterval
		if o.RetentionViews > 0 {
			cfg.RetentionViews = o.RetentionViews
		}
		if faulty[id] && o.Attack != core.AttackNone {
			cfg.Behavior = core.Behavior{Mode: o.Attack, Victims: victims, Accomplices: faulty}
		}
		if o.Dissem {
			cfg.Dissem = dissem.New(dissem.Config{N: n, F: cfg.F, CodeK: o.DissemCode})
		}
		return core.New(ctx, cfg)
	case Pbft:
		return pbft.New(ctx, pbft.DefaultConfig(n))
	case RCC:
		cfg := rcc.DefaultConfig(n, m)
		// Bound the aggregate out-of-order burst across instances.
		cfg.Window = 512 / m
		if cfg.Window < 4 {
			cfg.Window = 4
		}
		if cfg.Window > 64 {
			cfg.Window = 64
		}
		return rcc.New(ctx, cfg)
	case HotStuff:
		cfg := hotstuff.DefaultConfig(n)
		cfg.SkipQCVerify = o.SkipQCVerify
		if faulty[id] && o.Attack != core.AttackNone {
			cfg.Behavior = core.Behavior{Mode: o.Attack, Victims: victims, Accomplices: faulty}
		}
		return hotstuff.New(ctx, cfg)
	case NarwhalHS:
		return narwhal.New(ctx, narwhal.DefaultConfig(n))
	default:
		panic(fmt.Sprintf("bench: unknown protocol %q", o.Protocol))
	}
}

// estimateViewCycle predicts the failure-free view-cycle duration so
// SpotLess timeouts can track the "calculated average view duration" the
// paper uses (§6.3). The model sums per-cycle egress serialization, message
// processing on the core pool, and two propagation delays.
func estimateViewCycle(o Options, m int) time.Duration {
	n := o.N
	def := simnet.DefaultConfig(n)
	bw := o.BandwidthMbps
	if bw == 0 {
		bw = def.BandwidthMbps
	}
	cores := o.Cores
	if cores == 0 {
		cores = def.Cores
	}
	tuneBatch := o.BatchSize
	if o.TuneBatchSize > 0 {
		tuneBatch = o.TuneBatchSize
	}
	batchBytes := float64(types.ControlMsgSize + tuneBatch*(types.TxnOverhead+o.TxnValueSz))
	if o.Dissem {
		// Digest ordering: the proposal on the view-cycle critical path is
		// payload-free (a digest plus, at worst, an embedded certificate);
		// payload dissemination overlaps earlier views off the critical
		// path, so timeouts must not scale with batch size.
		batchBytes = float64(types.ControlMsgSize + protocol.Quorum(n, (n-1)/3)*types.SignatureSize)
	}
	bytesPerCycle := float64(m*(n-1))*float64(types.ControlMsgSize+32) +
		float64(n-1)*batchBytes
	ser := bytesPerCycle / (bw * 1e6 / 8)
	cpu := float64(m*n) * def.BaseHandlerCost.Seconds() / float64(cores)
	prop := 0.001 // 2 × ~0.5 ms
	if o.RegionCount > 1 {
		prop = 0.180 // 2 × worst one-way inter-region delay
	}
	d := time.Duration((ser + cpu + prop) * 3 * float64(time.Second))
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	return d
}
