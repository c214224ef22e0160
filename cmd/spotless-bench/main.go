// Command spotless-bench regenerates the tables and figures of the paper's
// evaluation section (§6.3) on the discrete-event simulator, and runs the
// seeded drills that check its claims (safety, soak, crash soak, power cut).
//
// Usage:
//
//	spotless-bench -list
//	spotless-bench -run fig7a            # one figure at paper scale
//	spotless-bench -run all -quick       # every entry, figures at CI scale (n ≤ 32)
//	spotless-bench -run fig7a,fig13      # a selection
//	spotless-bench -run safety -seeds 200                    # a drill over seeds 1..200
//	spotless-bench -run safety-legacy -seeds 5 -seed-base 8  # the negative control
//
// Output is aligned text tables (one per figure panel). The exit status is
// 1 when any selected drill's verdict fails and 2 on an unknown id.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"spotless/internal/bench"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments and drills and exit")
		run      = flag.String("run", "all", "comma-separated experiment or drill ids, or 'all'")
		quick    = flag.Bool("quick", false, "CI-sized figure sweeps (n ≤ 32) instead of paper scale (n = 128)")
		seeds    = flag.Int("seeds", 0, "seeds per drill sweep (0 = the drill's default)")
		seedBase = flag.Int64("seed-base", 1, "first seed of a drill sweep")
	)
	flag.Parse()

	if *list {
		printList(os.Stdout)
		return
	}
	selected, err := bench.Select(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	failed := false
	for _, f := range selected {
		start := time.Now()
		fmt.Printf("### %s — %s\n\n", f.ID, f.Title)
		tables, err := f.Run(*quick, *seeds, *seedBase)
		for _, t := range tables {
			fmt.Println(t.String())
		}
		fmt.Printf("(%s completed in %s)\n\n", f.ID, time.Since(start).Round(time.Millisecond))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED:\n%v\n", f.ID, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// printList writes one line per registry entry: its id and title.
func printList(w io.Writer) {
	for _, f := range bench.Figures {
		fmt.Fprintf(w, "%-8s %s\n", f.ID, f.Title)
	}
}
