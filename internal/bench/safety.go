package bench

import (
	"fmt"
	"strings"
	"time"

	"spotless/internal/core"
	"spotless/internal/dissem"
	"spotless/internal/loadgen"
	"spotless/internal/simnet"
	"spotless/internal/types"
)

// This file is the safety drill: a seeded adversary sweep that checks
// ledger agreement block-for-block. Each seed derives a deterministic
// schedule profile (simnet.RandomAdversary: targeted message delay, drop,
// and partition per pair/instance/view/kind, optionally composed with
// protocol-level equivocation) and replays bit-for-bit on any host — the
// PR 4 divergence recipe (~1-in-10 `-race` runs at n=4, m=4) as an
// always-reproducible drill instead of a flake. Pointed at the legacy
// resolution rules (SafetyDrillOptions.Legacy) the same harness is the
// negative control for the A3 fork-commit path the Lemma 3.4 re-derivation
// closed; see core/resolution.go and TestLegacyA3ForksLedger for the
// message-level pin.

// SafetyDrillOptions parameterizes one sweep.
type SafetyDrillOptions struct {
	N         int // replicas (default 4)
	Instances int // m concurrent instances (default 4)
	Seeds     int // distinct adversary seeds (default 50)
	SeedBase  int64
	BatchSize int           // txns per client batch (default 5)
	Duration  time.Duration // virtual time per seed (default 1.5s)

	// Pacemaker selects the view-synchronizer arm every replica runs
	// ("" = spotless; see core.PacemakerArms) — the bake-off's safety leg:
	// the divergence bar must hold under every arm.
	Pacemaker string

	// Dissem runs the drill under digest ordering: batches travel through
	// the dissemination layer, instances propose certified digests only,
	// and the same block-for-block agreement must hold.
	Dissem bool
	// DissemCode runs the Dissem drill with erasure-coded dissemination
	// (dissem.Config.CodeK): payloads travel as chunks, delivery
	// reconstructs, and agreement must still hold block-for-block — under
	// the scheduler adversary AND the equivocating-origin composition.
	DissemCode int
	// Legacy runs the seed's unsafe view-resolution rules
	// (core.Config.UnsafeLegacyResolution) — the negative control.
	Legacy bool
	// NoEquivocation disables the protocol-level Byzantine composition
	// (by default every third seed makes one replica equivocate).
	NoEquivocation bool
}

// SlotRecord is one delivered block in a replica's ledger order.
type SlotRecord struct {
	Instance int32
	View     types.View
	Batch    types.Digest
}

// Divergence reports one diverging seed with a readable block-level dump.
type Divergence struct {
	Seed     int64
	Position int // first ledger position where two replicas disagree
	Report   string
}

// SafetyDrillResult summarizes a sweep.
type SafetyDrillResult struct {
	Options   SafetyDrillOptions
	Seeds     []int64
	Divergent []Divergence
	Delivered uint64 // blocks delivered across all seeds and replicas
	Idle      int    // seeds whose adversary prevented any delivery
}

// runSafetySeed executes one seeded drill.
func runSafetySeed(o SafetyDrillOptions, seed int64) *drill {
	n, m := o.N, o.Instances
	f := (n - 1) / 3
	streams := m
	if o.Dissem {
		streams = n // one dissemination lane per origin replica
	}
	d := newDrill(n, streams, loadgen.DefaultWorkload(o.BatchSize), seed)
	d.sim.SetAdversary(simnet.RandomAdversary(seed, n, m))

	// Byzantine composition: every third seed makes the last replica
	// equivocate (conflicting proposals and claims toward f victims) on
	// top of the scheduler rules — the content-level half of the
	// adversary layer.
	equivocator := !o.NoEquivocation && seed%3 == 0
	victims := make(map[types.NodeID]bool, f)
	for i := 0; i < f; i++ {
		victims[types.NodeID(i)] = true
	}
	pm, err := core.PacemakerByName(o.Pacemaker)
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		cfg := drillConfig(n, m, pm)
		cfg.UnsafeLegacyResolution = o.Legacy
		if o.Dissem {
			cfg.Dissem = dissem.New(dissem.Config{N: n, F: f, CodeK: o.DissemCode})
		}
		if equivocator && i == n-1 {
			cfg.Behavior = core.Behavior{Mode: core.AttackEquivocate, Victims: victims}
		}
		d.sim.SetProtocol(id, core.New(d.sim.Context(id), cfg))
	}
	d.sim.Start()
	d.sim.Run(o.Duration)
	return d
}

// diffLedgers finds the first position where any replica's delivered
// sequence disagrees with the longest one, honest replicas only (the
// equivocator's own ledger is not part of the safety claim when it is the
// configured fault).
func diffLedgers(ledgers [][]SlotRecord, skip int) (pos int, a, b int, diverged bool) {
	longest := 0
	for i := range ledgers {
		if i == skip {
			continue
		}
		if len(ledgers[i]) > len(ledgers[longest]) || longest == skip {
			longest = i
		}
	}
	for i := range ledgers {
		if i == skip || i == longest {
			continue
		}
		for p := range ledgers[i] {
			if ledgers[i][p] != ledgers[longest][p] {
				return p, i, longest, true
			}
		}
	}
	return 0, 0, 0, false
}

// dumpDivergence renders a readable block-level report around the fork.
func dumpDivergence(seed int64, pos, a, b int, ledgers [][]SlotRecord) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "seed %d: ledgers diverge at position %d (replica %d vs %d)\n", seed, pos, a, b)
	lo := pos - 2
	if lo < 0 {
		lo = 0
	}
	for _, r := range []int{a, b} {
		fmt.Fprintf(&sb, "  replica %d (%d blocks):\n", r, len(ledgers[r]))
		for p := lo; p <= pos+2 && p < len(ledgers[r]); p++ {
			marker := " "
			if p == pos {
				marker = ">"
			}
			rec := ledgers[r][p]
			fmt.Fprintf(&sb, "   %s [%3d] inst=%d view=%-4d batch=%x\n", marker, p, rec.Instance, rec.View, rec.Batch[:6])
		}
	}
	return sb.String()
}

// RunSafetyDrill sweeps Seeds distinct adversary schedules and reports
// every seed whose honest ledgers diverged block-for-block.
func RunSafetyDrill(o SafetyDrillOptions) SafetyDrillResult {
	if o.N == 0 {
		o.N = 4
	}
	if o.Instances == 0 {
		o.Instances = 4
	}
	if o.Seeds == 0 {
		o.Seeds = 50
	}
	if o.SeedBase == 0 {
		o.SeedBase = 1
	}
	if o.BatchSize == 0 {
		o.BatchSize = 5
	}
	if o.Duration == 0 {
		o.Duration = 1500 * time.Millisecond
	}
	res := SafetyDrillResult{Options: o}
	for i := 0; i < o.Seeds; i++ {
		seed := o.SeedBase + int64(i)
		res.Seeds = append(res.Seeds, seed)
		d := runSafetySeed(o, seed)
		res.Delivered += d.delivered()
		if d.col.BatchesDone == 0 {
			res.Idle++
		}
		skip := -1
		if !o.NoEquivocation && seed%3 == 0 {
			skip = o.N - 1 // the equivocator is the configured fault
		}
		if pos, a, b, div := diffLedgers(d.ledgers, skip); div {
			res.Divergent = append(res.Divergent, Divergence{
				Seed: seed, Position: pos,
				Report: dumpDivergence(seed, pos, a, b, d.ledgers),
			})
		}
	}
	return res
}

// String renders the sweep summary (the -safety-drill CLI output).
func (r SafetyDrillResult) String() string {
	var sb strings.Builder
	mode := "strict"
	if r.Options.Legacy {
		mode = "LEGACY (negative control)"
	}
	if r.Options.Dissem {
		mode += " + digest ordering"
		if r.Options.DissemCode > 0 {
			mode += fmt.Sprintf(" (coded k=%d)", r.Options.DissemCode)
		}
	}
	if r.Options.Pacemaker != "" && r.Options.Pacemaker != "spotless" {
		mode += " + " + r.Options.Pacemaker + " pacemaker"
	}
	fmt.Fprintf(&sb, "safety drill: %d seeds, n=%d m=%d, %s rules — %d divergent, %d blocks delivered, %d idle seeds\n",
		len(r.Seeds), r.Options.N, r.Options.Instances, mode, len(r.Divergent), r.Delivered, r.Idle)
	for _, d := range r.Divergent {
		sb.WriteString(d.Report)
	}
	return sb.String()
}
