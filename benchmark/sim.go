package main

import (
	"math/rand"
	stdruntime "runtime"
	"runtime/debug"
	"slices"
	"time"

	"spotless/internal/core"
	"spotless/internal/protocol"
	"spotless/internal/simnet"
	"spotless/internal/types"
	"spotless/internal/ycsb"
)

// simScenario is one virtual-time trial: a SpotLess cluster with inline
// ordering on simnet's default LAN and cost model, under this benchmark's
// client, with the highest-numbered replica crashed and restarted empty
// once per outage.
type simScenario struct {
	n, m      int
	valueSize int

	outstanding int     // closed loop, batches per instance
	rate        float64 // open loop, batches per virtual second

	warm    time.Duration // latencies before this are not reported
	outages [][2]time.Duration
	end     time.Duration
}

// Timer and checkpoint settings of every simulated replica. The timers are
// what internal/bench's estimateViewCycle yields for 100 transactions of
// 33 B on the default 2400 Mbit/s, 16-core model at any n up to 16 (its
// 10 ms floor; MinTimeout tune/2; retransmit max(300 ms, 8·tune)), copied
// once so the benchmark does not depend on that package.
const (
	simTimeout      = 10 * time.Millisecond
	simMinTimeout   = 5 * time.Millisecond
	simRetransmit   = 300 * time.Millisecond
	simCkptInterval = 64
)

// trialShape gives a scenario the schedule every trial follows: a quarter
// second to settle, half a second of fault-free service, then four outages
// of 200 ms with 200 ms between them. 200 ms of arrivals is several
// checkpoint intervals at every load used here, so each restart has to go
// through state transfer.
func trialShape(sc simScenario) simScenario {
	sc.warm = 250 * time.Millisecond
	at := 750 * time.Millisecond
	for i := 0; i < 4; i++ {
		sc.outages = append(sc.outages, [2]time.Duration{at, at + 200*time.Millisecond})
		at += 400 * time.Millisecond
	}
	sc.end = at
	return sc
}

// simCrash is the sim-crash workload's trial.
func simCrash(w *workload) simScenario {
	return trialShape(simScenario{n: w.n, m: w.m, valueSize: w.valueSize, rate: w.rate})
}

// simProbe is the fault probe of a real-time workload: a simulated cluster
// of the workload's size (n, m) under a saturating closed loop of 100 × 33 B
// batches, through the same outages. Wall-clock latency on a shared host
// does not repeat well enough to gate and a real crash even less, so the
// real-time workloads take fault_p95_ms and rejoin_ms — and the paced ones
// p50_ms — from here, where they repeat. The probe is not a model of the
// workload. It runs inline ordering whatever the workload does: digest
// ordering does not ride out the crash on simnet at n=4. It runs a
// saturating load of small batches: at the paced rates the simulator's
// latency depends on the phase of idle views more than on the code, and
// with 100 KiB batches a restart does not always catch up before the next
// crash. And it runs sim-crash's timers. See README, Findings.
func simProbe(w *workload) simScenario {
	return trialShape(simScenario{n: w.n, m: w.m, valueSize: 33, outstanding: 8})
}

// victimRun is a stretch of the crashed replica's deliveries. A replica
// that restarts empty delivers whatever it sees commit until the checkpoint
// install re-roots it, so the stretch from a restart until it has caught up
// is provisional by design and not compared.
type victimRun struct {
	ids         []types.Digest
	provisional bool
}

// trial is what one simulated cluster leaves behind.
type trial struct {
	sc       simScenario
	acked    []*op
	unacked  []*op
	retrans  int
	rejoins  []time.Duration // restart → caught up with the slowest healthy replica
	healthy  [][]types.Digest
	victim   []victimRun
	reps     []*core.Replica
	stats    simnet.Stats
	firstAck time.Duration // wall time from construction to the first acknowledgement
}

type simClientNode struct{ c *client }

func (simClientNode) Start()                                               {}
func (simClientNode) HandleTimer(protocol.TimerTag)                        {}
func (s simClientNode) HandleMessage(from types.NodeID, msg types.Message) { s.c.Receive(from, msg) }

// openSchedule draws the open loop's due times: per one-second stratum the
// exact number of arrivals the rate implies, placed uniformly at random
// within it. That is a Poisson process conditioned on its per-second count,
// so the offered load — and every per-transaction metric — does not inherit
// the ±3 % a free-running exponential-gap process has between seeds.
func openSchedule(rng *rand.Rand, rate float64, end time.Duration) []time.Duration {
	var out []time.Duration
	carry := 0.0
	for s := time.Duration(0); s < end; s += time.Second {
		span := min(time.Second, end-s)
		want := rate*span.Seconds() + carry
		k := int(want)
		carry = want - float64(k)
		at := make([]time.Duration, k)
		for i := range at {
			at[i] = s + time.Duration(rng.Int63n(int64(span)))
		}
		slices.Sort(at)
		out = append(out, at...)
	}
	return out
}

// laneOf assigns a batch to a queue by digest, as cmd/spotless-replica's
// request intake does (§5).
func laneOf(id types.Digest, lanes int) int32 { return int32(id[0]) % int32(lanes) }

// runTrial simulates one cluster through the scenario.
func runTrial(sc simScenario, seed int64, tr *tracer) *trial {
	wallStart := time.Now()
	scfg := simnet.DefaultConfig(sc.n)
	scfg.Seed = seed
	sim := simnet.New(scfg)
	f := (sc.n - 1) / 3
	victim := types.NodeID(sc.n - 1)

	c := newClient(sc.m, f, sim.Now)
	if tr != nil {
		tr.now = sim.Now
	}
	sim.SetBatchSource(c)
	sim.SetProtocol(simnet.ClientNode, simClientNode{c})

	t := &trial{sc: sc, reps: make([]*core.Replica, sc.n),
		healthy: make([][]types.Digest, sc.n), victim: []victimRun{{}}}
	build := func(ctx protocol.Context) *core.Replica {
		cfg := core.DefaultConfig(sc.n, sc.m)
		cfg.InitialRecordingTimeout = simTimeout
		cfg.InitialCertifyTimeout = simTimeout
		cfg.MinTimeout = simMinTimeout
		cfg.RetransmitInterval = simRetransmit
		cfg.CheckpointInterval = simCkptInterval
		if tr != nil {
			ctx = tracedContext{ctx, tr, c, sc.n}
		}
		return core.New(ctx, cfg)
	}
	for i := 0; i < sc.n; i++ {
		t.reps[i] = build(sim.Context(types.NodeID(i)))
		sim.SetProtocol(types.NodeID(i), t.reps[i])
	}

	// Deliveries: the per-replica sequences the correctness gate compares,
	// the rejoin clock, and (traced) the execution stamps.
	var restartedAt time.Duration
	waiting := false
	execCost := time.Duration(float64(time.Second) / scfg.ExecRate)
	sim.SetDeliverHook(func(node types.NodeID, cm types.Commit) {
		if cm.Batch == nil || cm.Batch.NoOp {
			return
		}
		if node == victim {
			run := &t.victim[len(t.victim)-1]
			run.ids = append(run.ids, cm.Batch.ID)
			if waiting {
				slowest := t.reps[0].DeliveredCount()
				for _, r := range t.reps[:sc.n-1] {
					slowest = min(slowest, r.DeliveredCount())
				}
				if t.reps[victim].DeliveredCount() >= slowest {
					waiting = false
					t.rejoins = append(t.rejoins, sim.Now()-restartedAt)
					t.victim = append(t.victim, victimRun{})
				}
			}
		} else {
			t.healthy[node] = append(t.healthy[node], cm.Batch.ID)
		}
		if tr.on() {
			txns := len(cm.Batch.Txns)
			c.stamp(cm.Batch.ID, func(o *op, now time.Duration) {
				if o.execStart == 0 {
					o.execStart = now
					o.execEnd = now + time.Duration(txns)*execCost // the simulator's modelled execution
				}
			})
		}
	})
	for _, o := range sc.outages {
		down, up := o[0], o[1]
		sim.Schedule(down, func() { sim.SetDown(victim, true) })
		sim.Schedule(up, func() {
			t.victim = append(t.victim, victimRun{provisional: true})
			restartedAt, waiting = sim.Now(), true
			sim.Restart(victim, func(ctx protocol.Context) protocol.Protocol {
				t.reps[victim] = build(ctx)
				return t.reps[victim]
			})
		})
	}

	// Load.
	wl := ycsb.NewWorkload(seed, types.ClientIDBase, tableRecords, sc.valueSize)
	if sc.rate > 0 {
		due := openSchedule(rand.New(rand.NewSource(seed^0x6f70656e)), sc.rate, sc.end)
		var arrive func(i int)
		arrive = func(i int) {
			b := wl.NextBatch(batchTxns)
			c.offer(b, laneOf(b.ID, sc.m), due[i])
			if i+1 < len(due) {
				sim.Schedule(due[i+1], func() { arrive(i + 1) })
			}
		}
		if len(due) > 0 {
			sim.Schedule(due[0], func() { arrive(0) })
		}
	} else {
		issue := func(lane int32) {
			if sim.Now() < sc.end {
				c.offer(wl.NextBatch(batchTxns), lane, sim.Now())
			}
		}
		for l := 0; l < sc.m; l++ {
			for k := 0; k < sc.outstanding; k++ {
				issue(int32(l))
			}
		}
		c.refill = issue
	}
	var scan func()
	scan = func() {
		c.reoffer()
		sim.Schedule(sim.Now()+50*time.Millisecond, scan)
	}
	sim.Schedule(50*time.Millisecond, scan)

	sim.Start()
	step := 5 * time.Millisecond
	for sim.Now() < sc.end+failAfter {
		sim.Run(sim.Now() + step)
		if t.firstAck == 0 && c.ackedCount() > 0 {
			t.firstAck = time.Since(wallStart)
			step = 100 * time.Millisecond
		}
		if sim.Now() >= sc.end && c.outstanding() == 0 {
			break
		}
	}
	t.acked, t.unacked, t.retrans = c.results()
	t.stats = sim.Stats()
	return t
}

// simRun is a number of independent trials and what they add up to. One
// simulated cluster settles into a timer regime that lasts its whole life
// and differs from seed to seed, so latencies through a fault repeat only
// across several clusters; every trial gets its own seed derived from the
// run's.
type simRun struct {
	sc        simScenario
	trials    []*trial
	violation error     // the first trial that failed the correctness gate
	steady    []float64 // latencies (ms, from due time) of batches due in the fault-free stretch
	fault     []float64 // latencies of batches due while the replica was down
	rejoin    []float64 // ms per restart
	setup     []float64 // s per trial, construction to first acknowledgement
	perWin    []float64 // goodput (ktxn/s) per 200 ms window of every trial
	txns      int
	egress    uint64
	cpu       time.Duration
	wall      time.Duration
	mem       [2]stdruntime.MemStats // before and after, traced runs only
}

func runTrials(sc simScenario, seed int64, trials int, tr *tracer) *simRun {
	r := &simRun{sc: sc}
	wallStart, cpuStart := time.Now(), cpuTime()
	if tr != nil {
		stdruntime.ReadMemStats(&r.mem[0])
	}
	steady := interval{sc.warm, sc.outages[0][0]}
	whole := interval{sc.warm, sc.end}
	for k := 0; k < trials; k++ {
		t := runTrial(sc, seed*1000+int64(k), tr)
		if err := checkSim(t); err != nil && r.violation == nil {
			r.violation = err
		}
		t.healthy, t.victim = nil, nil // checked; a trial's sequences are most of what it holds
		if tr == nil {
			t.reps = nil // only the traced run reads the replicas' accessors afterwards
		}
		r.trials = append(r.trials, t)
		debug.FreeOSMemory() // so that peak memory is one trial's, whenever the collector last ran
		r.setup = append(r.setup, t.firstAck.Seconds())
		r.rejoin = append(r.rejoin, durationsMs(t.rejoins)...)
		for _, o := range t.acked {
			l := ms(o.acked - o.due)
			if steady.has(o.due) {
				r.steady = append(r.steady, l)
			}
			for _, out := range sc.outages {
				if (interval{out[0], out[1]}).has(o.due) {
					r.fault = append(r.fault, l)
				}
			}
			r.txns += o.txns
		}
		r.perWin = append(r.perWin, windows(t.acked, whole, 200*time.Millisecond)...)
		for _, b := range t.stats.NodeBytesSent[:sc.n] {
			r.egress += b
		}
	}
	if tr != nil {
		stdruntime.ReadMemStats(&r.mem[1])
	}
	r.wall, r.cpu = time.Since(wallStart), cpuTime()-cpuStart
	return r
}

// ops counts the operations due in the reported stretch of every trial, and
// those among them never acknowledged.
func (r *simRun) ops() (attempted, failed int) {
	whole := interval{r.sc.warm, r.sc.end}
	for _, t := range r.trials {
		attempted += len(dueIn(t.acked, whole))
		for _, o := range t.unacked {
			if whole.has(o.due) {
				attempted++
				failed++
			}
		}
	}
	return attempted, failed
}
