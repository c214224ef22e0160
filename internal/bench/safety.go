package bench

import (
	"errors"
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

// The safety drill's cell: m = 4 instances and 1.5 s of virtual time per
// seed; every third seed makes one replica equivocate.
const (
	safetyInstances = 4
	safetyDuration  = 1500 * time.Millisecond
)

// SafetyDrillOptions parameterizes one sweep.
type SafetyDrillOptions struct {
	Seeds    int // distinct adversary seeds (default 50)
	SeedBase int64

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
	Divergent []Divergence
	Delivered uint64 // blocks delivered across all seeds and replicas
	Idle      int    // seeds whose adversary prevented any delivery
}

// runSafetySeed executes one seeded drill.
func runSafetySeed(o SafetyDrillOptions, seed int64) *drill {
	n, m := drillN, safetyInstances
	f := (n - 1) / 3
	streams := m
	if o.Dissem {
		streams = n // one dissemination lane per origin replica
	}
	d := newDrill(n, streams, loadgen.DefaultWorkload(5), seed)
	d.sim.SetAdversary(simnet.RandomAdversary(seed, n, m))

	// Byzantine composition: every third seed makes the last replica
	// equivocate (conflicting proposals and claims toward f victims) on
	// top of the scheduler rules — the content-level half of the
	// adversary layer.
	equivocator := seed%3 == 0
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
	d.sim.Run(safetyDuration)
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
	if o.Seeds == 0 {
		o.Seeds = 50
	}
	if o.SeedBase == 0 {
		o.SeedBase = 1
	}
	res := SafetyDrillResult{Options: o}
	for i := 0; i < o.Seeds; i++ {
		seed := o.SeedBase + int64(i)
		d := runSafetySeed(o, seed)
		res.Delivered += d.delivered()
		if d.col.BatchesDone == 0 {
			res.Idle++
		}
		skip := -1
		if seed%3 == 0 {
			skip = drillN - 1 // the equivocator is the configured fault
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

// variant names the sweep's dissemination mode.
func (r SafetyDrillResult) variant() string {
	switch {
	case r.Options.DissemCode > 0:
		return fmt.Sprintf("digest ordering, coded k=%d", r.Options.DissemCode)
	case r.Options.Dissem:
		return "digest ordering, full push"
	}
	return "inline"
}

// Verdict fails when honest ledgers diverged under the strict rules or
// no seed delivered a block. The legacy negative control has no verdict:
// forking is its expected outcome.
func (r SafetyDrillResult) Verdict() error {
	if r.Options.Legacy {
		return nil
	}
	return errors.Join(
		check(len(r.Divergent) == 0, "%s: %d of %d seeds diverged under the strict rules:\n%s",
			r.variant(), len(r.Divergent), r.Options.Seeds, reports(r.Divergent)),
		check(r.Delivered > 0, "%s: no block delivered, the adversary wedged every seed", r.variant()))
}

// safetyDrill sweeps each variant over the same seeds into one table, one
// row per variant; forks lists each divergent seed with its first
// diverging ledger position.
func safetyDrill(seeds int, seedBase int64, variants ...SafetyDrillOptions) ([]Table, error) {
	t := Table{ID: "safety",
		Headers: []string{"variant", "rules", "seeds", "divergent", "blocks delivered", "idle seeds", "forks (seed@position)"}}
	var errs []error
	for _, o := range variants {
		o.Seeds, o.SeedBase = seeds, seedBase
		r := RunSafetyDrill(o)
		errs = append(errs, r.Verdict())
		t.Title = fmt.Sprintf("seeded adversary sweep, n=%d m=%d, seeds %d..%d",
			drillN, safetyInstances, r.Options.SeedBase, r.Options.SeedBase+int64(r.Options.Seeds)-1)
		rules, forks := "strict", []string{}
		if r.Options.Legacy {
			rules = "LEGACY (negative control)"
			if len(r.Divergent) == 0 {
				t.Title += "; no fork in this seed range, try -seed-base 8"
			}
		}
		for _, d := range r.Divergent {
			forks = append(forks, fmt.Sprintf("%d@%d", d.Seed, d.Position))
		}
		t.Rows = append(t.Rows, []string{r.variant(), rules, fmt.Sprintf("%d", r.Options.Seeds),
			fmt.Sprintf("%d", len(r.Divergent)), fmt.Sprintf("%d", r.Delivered), fmt.Sprintf("%d", r.Idle), strings.Join(forks, " ")})
	}
	return []Table{t}, errors.Join(errs...)
}
