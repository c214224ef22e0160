// Command spotless-bench regenerates the tables and figures of the paper's
// evaluation section (§6.3) on the discrete-event simulator.
//
// Usage:
//
//	spotless-bench -list
//	spotless-bench -run fig7a            # one figure at paper scale
//	spotless-bench -run all -quick       # every figure at CI scale (n ≤ 32)
//	spotless-bench -run fig7a,fig13      # a selection
//	spotless-bench -soak 5               # chaos bake-off: profiles × pacemakers
//	spotless-bench -soak 5 -pacemaker relay -soak-profiles partitions
//
// Output is aligned text tables (one per figure panel).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"spotless/internal/bench"
	"spotless/internal/core"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list available experiments and exit")
		run   = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		quick = flag.Bool("quick", false, "CI-sized sweeps (n ≤ 32) instead of paper scale (n = 128)")
		seed  = flag.Int64("seed-base", 1, "first seed of the -safety-drill, -soak or -crashsoak sweep")

		safetyDrill  = flag.Int("safety-drill", 0, "run the seeded adversary safety drill over this many seeds (n=4, m=4; ledger diff with a block-level dump on divergence) and exit non-zero on any fork")
		safetyOld    = flag.Bool("safety-legacy", false, "point the -safety-drill at the pre-refactor resolution rules (negative control: divergence is the expected outcome)")
		safetyDissem = flag.Bool("safety-dissem", false, "run the -safety-drill under digest ordering (internal/dissem)")
		safetyCode   = flag.Int("safety-dissem-code", 0, "run the -safety-dissem drill with erasure-coded dissemination using this many data chunks (0 = full push; implies -safety-dissem)")
		safetyPace   = flag.String("safety-pacemaker", "", "view-synchronizer arm for the -safety-drill (spotless, relay, doubling; empty = spotless)")

		powercut = flag.Bool("powercut", false, "run the power-cut drill on the simulator with the real executor and WAL (kill -9 a durable replica under load, restart it with the client paused, meter the rejoin) against a memory-only control, and exit non-zero unless the durable replica restored its execution snapshot, answered every pre-checkpoint-key read correctly at restart with zero blocks replayed below the snapshot anchor, and transferred strictly less than the control")

		crashSoak = flag.Int("crashsoak", 0, "run the crash/disk-fault chaos soak on the simulator with the real executor and WAL over this many seeds (kill -9 + snapshot/segment faults between checkpoints, restart, compare every table byte-for-byte with a never-crashed control) and exit non-zero on any divergence or any seed whose episodes stalled")

		soak      = flag.Int("soak", 0, "run the seeded soak/chaos bake-off over this many seeds per (fault profile × pacemaker arm) cell — time-to-resync p50/p99 and commits-lost-per-fault on simulator virtual time — and exit non-zero on any divergence")
		soakPace  = flag.String("pacemaker", "", "comma-separated view-synchronizer arms for the -soak sweep (empty = all of spotless, relay, doubling)")
		soakFault = flag.String("soak-profiles", "", "comma-separated fault profiles for the -soak sweep (empty = partitions, gray, skew)")
	)
	flag.Parse()

	if *powercut {
		start := time.Now()
		o := bench.PowerCutOptions{}.WithDefaults()
		warm, cold, err := bench.RunPowerCut(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "powercut: %v\n", err)
			os.Exit(2)
		}
		t := bench.PowerCutTable(warm, cold, o)
		fmt.Println(t.String())
		fmt.Printf("(powercut completed in %s)\n", time.Since(start).Round(time.Millisecond))
		if warm.Replayed == 0 {
			fmt.Fprintln(os.Stderr, "POWERCUT FAILED: durable replica replayed nothing from local disk")
			os.Exit(1)
		}
		if warm.ChunkBlocks >= cold.ChunkBlocks {
			fmt.Fprintf(os.Stderr, "POWERCUT FAILED: durable rejoin transferred %d blocks, control transferred %d — suffix fetch did not engage\n",
				warm.ChunkBlocks, cold.ChunkBlocks)
			os.Exit(1)
		}
		if !warm.SnapRestored {
			fmt.Fprintln(os.Stderr, "POWERCUT FAILED: durable replica did not restore its execution snapshot at restart")
			os.Exit(1)
		}
		if warm.PreKeys == 0 {
			fmt.Fprintln(os.Stderr, "POWERCUT FAILED: the stable cut held no pre-checkpoint keys to attest")
			os.Exit(1)
		}
		if warm.PreKeyMisses != 0 {
			fmt.Fprintf(os.Stderr, "POWERCUT FAILED: restarted replica answered %d of %d pre-checkpoint-key reads wrongly\n",
				warm.PreKeyMisses, warm.PreKeys)
			os.Exit(1)
		}
		if warm.BelowAnchor != 0 {
			fmt.Fprintf(os.Stderr, "POWERCUT FAILED: restart replayed %d blocks below the snapshot anchor\n", warm.BelowAnchor)
			os.Exit(1)
		}
		return
	}

	if *crashSoak > 0 {
		start := time.Now()
		res := bench.RunCrashSoak(bench.CrashSoakOptions{Seeds: *crashSoak, SeedBase: *seed})
		t := bench.CrashSoakTable(res)
		fmt.Println(t.String())
		fmt.Printf("(crashsoak completed in %s)\n", time.Since(start).Round(time.Millisecond))
		if res.Divergent > 0 {
			fmt.Fprintf(os.Stderr, "CRASHSOAK FAILED: %d of %d seeds diverged from the never-crashed control\n",
				res.Divergent, len(res.Seeds))
			for _, s := range res.Seeds {
				if s.Diverged || s.Forked {
					fmt.Fprintf(os.Stderr, "seed %d (%v):\n%s", s.Seed, s.Faults, s.Report)
				}
			}
			os.Exit(1)
		}
		if res.Stalled > 0 {
			fmt.Fprintf(os.Stderr, "CRASHSOAK FAILED: %d of %d seeds stalled before finishing their episodes\n",
				res.Stalled, len(res.Seeds))
			for _, s := range res.Seeds {
				if s.Stalled {
					fmt.Fprintf(os.Stderr, "seed %d (%v):\n%s", s.Seed, s.Faults, s.Report)
				}
			}
			os.Exit(2)
		}
		if res.Restored == 0 || res.Fallbacks+res.Quarantined == 0 {
			fmt.Fprintln(os.Stderr, "CRASHSOAK FAILED: the sweep did not exercise both recovery paths (clean restore AND corruption fallback)")
			os.Exit(1)
		}
		return
	}

	if *soak > 0 {
		start := time.Now()
		o := bench.SoakOptions{Seeds: *soak, SeedBase: *seed}
		if *soakPace != "" {
			o.Pacemakers = splitList(*soakPace)
		}
		if *soakFault != "" {
			o.Profiles = splitList(*soakFault)
		}
		res, err := bench.RunSoak(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "soak: %v\n", err)
			os.Exit(2)
		}
		fmt.Print(res.String())
		fmt.Printf("(soak completed in %s)\n", time.Since(start).Round(time.Millisecond))
		if len(res.Divergences()) > 0 {
			os.Exit(1) // chaos must degrade liveness, never safety
		}
		return
	}

	if *safetyDrill > 0 {
		if _, err := core.PacemakerByName(*safetyPace); err != nil {
			fmt.Fprintf(os.Stderr, "safety-drill: %v\n", err)
			os.Exit(2)
		}
		start := time.Now()
		res := bench.RunSafetyDrill(bench.SafetyDrillOptions{
			Seeds: *safetyDrill, SeedBase: *seed, Legacy: *safetyOld,
			Dissem: *safetyDissem || *safetyCode > 0, DissemCode: *safetyCode,
			Pacemaker: *safetyPace,
		})
		fmt.Print(res.String())
		fmt.Printf("(drill completed in %s)\n", time.Since(start).Round(time.Millisecond))
		if !*safetyOld && len(res.Divergent) > 0 {
			os.Exit(1) // strict rules must never fork
		}
		if *safetyOld && len(res.Divergent) == 0 {
			fmt.Println("note: the legacy sweep found no fork in this seed range; try -seed-base 8")
		}
		return
	}

	if *list {
		for _, f := range bench.Figures {
			fmt.Printf("%-8s %s\n", f.ID, f.Title)
		}
		return
	}

	var selected []bench.Figure
	if *run == "all" {
		selected = bench.Figures
	} else {
		for _, id := range strings.Split(*run, ",") {
			f := bench.FigureByID(strings.TrimSpace(id))
			if f == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", id)
				os.Exit(2)
			}
			selected = append(selected, *f)
		}
	}

	runFigures(selected, *quick)
}

// splitList parses a comma-separated flag value, dropping blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func runFigures(selected []bench.Figure, quick bool) {
	for _, f := range selected {
		start := time.Now()
		fmt.Printf("### %s — %s\n\n", f.ID, f.Title)
		for _, t := range f.Run(quick) {
			fmt.Println(t.String())
		}
		fmt.Printf("(%s completed in %s)\n\n", f.ID, time.Since(start).Round(time.Millisecond))
	}
}
