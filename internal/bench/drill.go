package bench

import (
	"fmt"
	"time"

	"spotless/internal/core"
	"spotless/internal/ledger"
	"spotless/internal/loadgen"
	"spotless/internal/protocol"
	"spotless/internal/runtime"
	"spotless/internal/simnet"
	"spotless/internal/types"
	"spotless/internal/wal"
	"spotless/internal/ycsb"
)

// This file is the seeded simulator harness all four drills run on (safety
// drill, soak, crash soak, power cut): the simnet config, the closed-loop
// loadgen client, the ledger recorder and the core config template. For the
// durability drills it hosts the real execution layer — executor, WAL and
// attested snapshots over a per-node wal.MemFS — on every replica, so
// kill-9s, disk faults and restarts are events on virtual time and every
// seed replays bit-for-bit.

// drill is one seeded simulator run.
type drill struct {
	sim     *simnet.Simulation
	src     *loadgen.Source
	col     *loadgen.Collector
	ledgers [][]SlotRecord    // every replica's deliveries, in order
	times   [][]time.Duration // and their virtual timestamps
	// meter, when set, observes every message a durable replica sends.
	meter func(from, to types.NodeID, msg types.Message)
	// drawn and stale are the batches durable replicas took from the client
	// in the current and the previous retransmission interval.
	drawn, stale []types.Digest
}

// newDrill builds an n-replica simulator whose client keeps 4 batches
// outstanding on each of `streams` lanes, drawn from wl under the seed.
func newDrill(n, streams int, wl loadgen.Workload, seed int64) *drill {
	scfg := simnet.DefaultConfig(n)
	scfg.Seed = seed
	scfg.BaseHandlerCost = time.Microsecond
	d := &drill{sim: simnet.New(scfg), ledgers: make([][]SlotRecord, n), times: make([][]time.Duration, n)}
	d.sim.SetDeliverHook(func(node types.NodeID, c types.Commit) {
		if int(node) < n && c.Batch != nil {
			d.ledgers[node] = append(d.ledgers[node], SlotRecord{Instance: c.Instance, View: c.View, Batch: c.Batch.ID})
			d.times[node] = append(d.times[node], d.sim.Now())
		}
	})
	wl.Seed = seed
	d.src = loadgen.NewSource(streams, 4, wl)
	d.sim.SetBatchSource(d.src)
	d.col = loadgen.NewCollector(d.sim.Context(simnet.ClientNode), d.src, (n-1)/3, 0)
	d.col.MeasureEnd = time.Hour
	d.sim.SetProtocol(simnet.ClientNode, d.col)
	return d
}

// delivered counts the blocks delivered across all replicas.
func (d *drill) delivered() (blocks uint64) {
	for _, l := range d.ledgers {
		blocks += uint64(len(l))
	}
	return blocks
}

// drillConfig is the consensus template every drill replica starts from:
// LAN-scale timeouts under the given pacemaker (nil = spotless).
func drillConfig(n, m int, pm core.PacemakerFactory) core.Config {
	cfg := core.DefaultConfig(n, m)
	cfg.InitialRecordingTimeout = 20 * time.Millisecond
	cfg.InitialCertifyTimeout = 20 * time.Millisecond
	cfg.MinTimeout = 5 * time.Millisecond
	cfg.Pacemaker = pm
	return cfg
}

// drillWait bounds every wait of the durability drills, in virtual time.
const drillWait = 5 * time.Second

// until advances virtual time in 1 ms steps until cond holds; false if
// drillWait elapses first.
func (d *drill) until(cond func() bool) bool {
	deadline := d.sim.Now() + drillWait
	for !cond() {
		if d.sim.Now() >= deadline {
			return false
		}
		d.sim.Run(d.sim.Now() + time.Millisecond)
	}
	return true
}

// commits waits for k more client-completed batches.
func (d *drill) commits(k int) bool {
	target := d.col.BatchesDone + uint64(k)
	return d.until(func() bool { return d.col.BatchesDone >= target })
}

// durable is the real execution layer hosted on one simulated replica;
// sim.Restart(id, build) brings it back from its disk.
type durable struct {
	fs    *wal.MemFS // nil: memory-only ledger
	dir   string     // WAL directory on fs
	exec  *runtime.ReplicaExecutor
	wal   *wal.Store
	core  *core.Replica
	build func(ctx protocol.Context) protocol.Protocol
	// rejected counts restarts whose persisted resume state ApplyResume
	// refused; such a replica silently rejoins from scratch.
	rejected int
}

// newDurableDrill starts the durability drills' cluster: n = 4, one
// instance, the uniform workload over a `records`-key table, a checkpoint
// every `interval`, and the execution layer on every replica, over its own
// wal.MemFS when withWAL is set.
func newDurableDrill(seed int64, records uint64, interval int, withWAL bool) (*drill, []*durable) {
	wl := loadgen.DefaultWorkload(5)
	wl.Records = records
	d := newDrill(4, 1, wl, seed)
	cfg := drillConfig(4, 1, nil)
	cfg.CheckpointInterval = interval
	reps := make([]*durable, cfg.N)
	for i := range reps {
		r := &durable{dir: fmt.Sprintf("r%d", i)}
		if withWAL {
			r.fs = wal.NewMemFS()
		}
		r.build = func(ctx protocol.Context) protocol.Protocol {
			var res *core.ResumeState
			var snap []byte
			lg := ledger.New()
			if r.fs != nil {
				var err error
				if lg, r.wal, res, snap, err = runtime.OpenDurable(r.dir, wal.Config{FS: r.fs}); err != nil {
					panic(err) // a MemFS mount cannot fail
				}
			}
			// The simulator models the Inform, so the executor has no transport.
			r.exec = runtime.NewReplicaExecutor(ctx.ID(), ycsb.NewStore(records, 64), lg, nil, types.ClientIDBase)
			if r.wal != nil {
				r.exec.BindDurable(r.wal)
			}
			c := cfg
			c.Host = r.exec
			if runtime.ApplyResume(res, snap, &c, ctx.Crypto(), r.exec) != nil {
				r.rejected++
			}
			r.core = core.New(execCtx{Context: ctx, d: d, exec: r.exec}, c)
			return r.core
		}
		id := types.NodeID(i)
		d.sim.SetProtocol(id, r.build(d.sim.Context(id)))
		reps[i] = r
	}
	d.sim.Schedule(drillRetransmit, d.retransmit)
	d.sim.Start()
	return d, reps
}

// drillRetransmit is the client's retransmission interval.
const drillRetransmit = 100 * time.Millisecond

// retransmit is the client's retransmission timer. A batch drawn an interval
// ago that has not completed was lost with a killed or timed-out primary,
// and its closed-loop credit with it: Release replaces it with a fresh
// batch. Release ignores completed batches, and a late commit of a replaced
// one no longer counts.
func (d *drill) retransmit() {
	for _, id := range d.stale {
		d.src.Release(id, d.sim.Now())
	}
	d.stale, d.drawn = d.drawn, nil
	d.sim.Schedule(d.sim.Now()+drillRetransmit, d.retransmit)
}

// execCtx runs the executor inside Deliver, before the simulator's own
// delivery (recorder, Inform): at a checkpoint cut StateDigest runs right
// after Deliver and assumes the table holds exactly the delivered prefix.
// It also feeds the meter and records drawn batches.
type execCtx struct {
	protocol.Context
	d    *drill
	exec *runtime.ReplicaExecutor
}

func (c execCtx) Deliver(cm types.Commit) {
	c.exec.Execute(cm)
	c.Context.Deliver(cm)
}

func (c execCtx) NextBatch(instance int32) *types.Batch {
	b := c.Context.NextBatch(instance)
	if b != nil {
		c.d.drawn = append(c.d.drawn, b.ID)
	}
	return b
}

func (c execCtx) Send(to types.NodeID, msg types.Message) {
	if c.d.meter != nil {
		c.d.meter(c.ID(), to, msg)
	}
	c.Context.Send(to, msg)
}

func (c execCtx) Broadcast(msg types.Message) {
	for i := 0; i < c.N(); i++ {
		if id := types.NodeID(i); id != c.ID() {
			c.Send(id, msg)
		}
	}
}
