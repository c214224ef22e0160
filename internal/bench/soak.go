package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"spotless/internal/core"
	"spotless/internal/loadgen"
	"spotless/internal/protocol"
	"spotless/internal/simnet"
	"spotless/internal/types"
)

// This file is the soak/chaos harness — the measurement side of the
// view-synchronizer bake-off. Where the safety drill answers "did we
// fork?", the soak answers "how fast did we heal?": each seeded run
// installs one chaos profile (simnet.InstallChaos — churning partitions,
// gray failures, timer skew) and measures, per fault episode, the
// time-to-resync (fault heal → first post-heal commit observed by every
// replica) and the commits-lost spread (how far apart replica ledgers were
// at the moment of heal). The sweep crosses fault profiles with pacemaker
// arms (core.PacemakerArms), so the paper's adaptive synchronizer is
// measured head-to-head against the Cogsworth-style relay and
// Lumiere-style doubling alternatives under identical fault schedules:
// everything is seeded, so a (profile, arm, seed) cell reproduces
// bit-for-bit on any host.

// SoakOptions parameterizes one bake-off sweep.
type SoakOptions struct {
	N         int   // replicas (default 4)
	Instances int   // m concurrent instances (default 4)
	Seeds     int   // seeds per (profile × pacemaker) cell (default 5)
	SeedBase  int64 // first seed (default 1)
	BatchSize int   // txns per client batch (default 5)
	// Duration is the virtual time per seed (default 3s). Chaos episodes
	// are planned inside [300ms, Duration−500ms]; the tail measures the
	// last resync.
	Duration time.Duration

	// Profiles and Pacemakers select the sweep axes; defaults are the
	// non-mixed chaos profiles × all built-in arms.
	Profiles   []string
	Pacemakers []string
}

// FaultOutcome is the measured result of one fault episode.
type FaultOutcome struct {
	Seed   int64
	Record simnet.FaultRecord
	// Resync is heal → first post-heal commit: the slowest victim's first
	// delivery after the fault healed (the resolution machine re-engaging —
	// catch-up jump, backfill, re-delivery). Healed reports whether every
	// victim delivered again before the run ended.
	Resync time.Duration
	Healed bool
	// Lost is the commits-lost-per-fault spread: how many commits the
	// most-advanced replica held over the least-advanced one at heal time.
	Lost int
}

// SoakCell aggregates one (profile × pacemaker) cell of the sweep.
type SoakCell struct {
	Profile   string
	Pacemaker string
	Faults    int
	Unhealed  int
	ResyncP50 time.Duration
	ResyncP99 time.Duration
	LostMean  float64
	Blocks    uint64 // delivered blocks across seeds (per replica average)
	Divergent []Divergence
	Outcomes  []FaultOutcome
}

// SoakResult is the full sweep.
type SoakResult struct {
	Options SoakOptions
	Cells   []SoakCell
}

// runSoakSeed executes one (profile, pacemaker, seed) run and returns it
// with its fault plan.
func runSoakSeed(o SoakOptions, profile, arm string, seed int64) (*drill, []simnet.FaultRecord, error) {
	n, m := o.N, o.Instances
	d := newDrill(n, m, loadgen.DefaultWorkload(o.BatchSize), seed)
	pm, err := core.PacemakerByName(arm)
	if err != nil {
		return nil, nil, err
	}
	// Checkpointing on: the soak's faults leave replicas hundreds of commits
	// behind, and state transfer is the designed recovery path for that
	// (one-proposal-per-Ask backfill alone never drains it).
	cfg := drillConfig(n, m, pm)
	cfg.CheckpointInterval = 128
	plan, err := d.sim.InstallChaos(simnet.ChaosConfig{
		Profile: profile,
		Seed:    seed,
		N:       n,
		Start:   300 * time.Millisecond,
		End:     o.Duration - 500*time.Millisecond,
		// Crash episodes rebuild the victim amnesiac, with the same
		// constructor used at setup; it rejoins through state transfer.
		Restart: func(id types.NodeID) {
			d.sim.Restart(id, func(ctx protocol.Context) protocol.Protocol {
				return core.New(ctx, cfg)
			})
		},
	})
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		d.sim.SetProtocol(id, core.New(d.sim.Context(id), cfg))
	}
	d.sim.Start()
	d.sim.Run(o.Duration)
	return d, plan, nil
}

// measureFault derives one episode's outcome from the per-replica commit
// timelines. The commit-frontier spread at heal time (most-advanced minus
// least-advanced replica) is the commits-lost-per-fault figure: how much
// ledger the victims missed while faulted. Time-to-resync is heal → the
// slowest victim's first delivery after the heal — the latency of the
// resolution machine re-engaging (catch-up jump, Ask backfill,
// re-delivery), measurable even while a long backlog is still draining.
func measureFault(rec simnet.FaultRecord, times [][]time.Duration, seed int64) FaultOutcome {
	out := FaultOutcome{Seed: seed, Record: rec}
	atHeal := make([]int, len(times))
	maxAt, minAt := 0, int(^uint(0)>>1)
	for i, ts := range times {
		atHeal[i] = sort.Search(len(ts), func(j int) bool { return ts[j] > rec.Heal })
		if atHeal[i] > maxAt {
			maxAt = atHeal[i]
		}
		if atHeal[i] < minAt {
			minAt = atHeal[i]
		}
	}
	out.Lost = maxAt - minAt
	var resyncAt time.Duration
	for _, v := range rec.Victims {
		ts := times[v]
		i := atHeal[v]
		if i >= len(ts) {
			return out // the victim never delivered again before run end
		}
		if ts[i] > resyncAt {
			resyncAt = ts[i]
		}
	}
	out.Healed = true
	out.Resync = resyncAt - rec.Heal
	return out
}

// RunSoak sweeps Profiles × Pacemakers × Seeds and aggregates per-cell
// resync percentiles, loss means, and divergence checks.
func RunSoak(o SoakOptions) (SoakResult, error) {
	if o.N == 0 {
		o.N = 4
	}
	if o.Instances == 0 {
		o.Instances = 4
	}
	if o.Seeds == 0 {
		o.Seeds = 5
	}
	if o.SeedBase == 0 {
		o.SeedBase = 1
	}
	if o.BatchSize == 0 {
		o.BatchSize = 5
	}
	if o.Duration == 0 {
		o.Duration = 3 * time.Second
	}
	if len(o.Profiles) == 0 {
		o.Profiles = []string{simnet.ProfilePartitions, simnet.ProfileGray, simnet.ProfileSkew}
	}
	if len(o.Pacemakers) == 0 {
		o.Pacemakers = core.PacemakerArms
	}
	for _, arm := range o.Pacemakers {
		if _, err := core.PacemakerByName(arm); err != nil {
			return SoakResult{}, err
		}
	}

	res := SoakResult{Options: o}
	for _, profile := range o.Profiles {
		for _, arm := range o.Pacemakers {
			cell := SoakCell{Profile: profile, Pacemaker: arm}
			for i := 0; i < o.Seeds; i++ {
				seed := o.SeedBase + int64(i)
				d, plan, err := runSoakSeed(o, profile, arm, seed)
				if err != nil {
					return SoakResult{}, err
				}
				for _, rec := range plan {
					cell.Outcomes = append(cell.Outcomes, measureFault(rec, d.times, seed))
				}
				cell.Blocks += d.delivered() / uint64(o.N)
				if dv, div := diffLedgersSparse(seed, d.ledgers); div {
					cell.Divergent = append(cell.Divergent, dv)
				}
			}
			var resyncs []time.Duration
			var lost int
			for _, out := range cell.Outcomes {
				cell.Faults++
				lost += out.Lost
				if out.Healed {
					resyncs = append(resyncs, out.Resync)
				} else {
					cell.Unhealed++
				}
			}
			sort.Slice(resyncs, func(i, j int) bool { return resyncs[i] < resyncs[j] })
			cell.ResyncP50 = percentileDur(resyncs, 0.50)
			cell.ResyncP99 = percentileDur(resyncs, 0.99)
			if cell.Faults > 0 {
				cell.LostMean = float64(lost) / float64(cell.Faults)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res, nil
}

// diffLedgersSparse checks fork-freedom across ledgers that may carry
// state-transfer holes: a rejoiner that installed a checkpoint skipped the
// covered blocks, so position-based prefix comparison (diffLedgers) would
// flag the hole as divergence. Delivery order is ascending in
// (view, instance) on every correct replica, so agreement reduces to: any
// two replicas that both delivered a slot delivered the same batch there.
func diffLedgersSparse(seed int64, ledgers [][]SlotRecord) (Divergence, bool) {
	type slotKey struct {
		inst int32
		view types.View
	}
	ref := make(map[slotKey]types.Digest)
	refOwner := make(map[slotKey]int)
	for i, l := range ledgers {
		for p, rec := range l {
			k := slotKey{rec.Instance, rec.View}
			if prev, ok := ref[k]; ok {
				if prev != rec.Batch {
					return Divergence{
						Seed: seed, Position: p,
						Report: fmt.Sprintf("seed %d: replicas %d and %d delivered different batches at inst=%d view=%d (%x vs %x)\n",
							seed, refOwner[k], i, rec.Instance, rec.View, prev[:6], rec.Batch[:6]),
					}, true
				}
				continue
			}
			ref[k] = rec.Batch
			refOwner[k] = i
		}
	}
	return Divergence{}, false
}

// percentileDur reads the q-quantile of an ascending slice (nearest rank).
func percentileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// Divergences flattens every diverging seed across cells.
func (r SoakResult) Divergences() []Divergence {
	var all []Divergence
	for _, c := range r.Cells {
		all = append(all, c.Divergent...)
	}
	return all
}

// Table renders the per-(profile × pacemaker) bake-off table.
func (r SoakResult) Table() Table {
	t := Table{
		ID:    "soak-bakeoff",
		Title: fmt.Sprintf("time-to-resync per fault profile × pacemaker (n=%d m=%d, %d seeds/cell, %s virtual each)", r.Options.N, r.Options.Instances, r.Options.Seeds, r.Options.Duration),
		Headers: []string{"profile", "pacemaker", "faults", "unhealed",
			"resync p50", "resync p99", "lost/fault", "blocks", "diverged"},
	}
	for _, c := range r.Cells {
		t.Rows = append(t.Rows, []string{
			c.Profile, c.Pacemaker,
			fmt.Sprintf("%d", c.Faults),
			fmt.Sprintf("%d", c.Unhealed),
			fmtDurMs(c.ResyncP50),
			fmtDurMs(c.ResyncP99),
			fmt.Sprintf("%.1f", c.LostMean),
			fmt.Sprintf("%d", c.Blocks),
			fmt.Sprintf("%d", len(c.Divergent)),
		})
	}
	return t
}

func fmtDurMs(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// String renders the table plus any divergence reports (the -soak CLI
// output).
func (r SoakResult) String() string {
	var sb strings.Builder
	t := r.Table()
	sb.WriteString(t.String())
	for _, d := range r.Divergences() {
		sb.WriteString(d.Report)
	}
	return sb.String()
}
