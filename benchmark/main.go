// Command benchmark is the repository's benchmark: five workloads over the
// real stack (runtime, transport, crypto, core, dissem, rs, ycsb, ledger,
// wal) and the simulator, eight end-to-end metrics, a per-layer table and a
// trace recorded from outside the program. See README.md in this directory
// and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                          every workload, timed then traced, one process each
//	go run ./benchmark -repeat 5                the same five times over, with the spread per metric
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//	                                            one run; the last line of standard output is its result as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	stdruntime "runtime"
	"sort"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in this process (default: all, one process each)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 10, "length of the measure interval")
		trace    = flag.Int("trace", 0, "1: run with the decorators recording and report the per-layer metrics")
		traceOut = flag.String("trace-out", "", "where a traced run writes its spans (default: "+scratchDir+"/trace-<workload>.jsonl)")
		repeat   = flag.Int("repeat", 1, "run everything this many times, each with another seed, and print the spread")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *repeat))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runWorkload(w, options{seed: *seed, seconds: *seconds, trace: *trace != 0, traceOut: *traceOut})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	report(os.Stderr, res)
	fmt.Println(res.json())
	if !res.correct {
		os.Exit(1)
	}
}

// measure runs one workload in this process and returns everything it
// measured: the end-to-end metrics always, and in a traced run the per-layer
// metrics too, layer table included.
func measure(w *workload, opt options) (*result, error) {
	var res *result
	var err error
	if w.substrate == "sim" {
		res, err = runSimWorkload(w, opt)
	} else {
		res, err = runReal(w, opt)
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if opt.trace {
		table, err := layerTable(opt.seed, opt.quick)
		if err != nil {
			return nil, err
		}
		for k, v := range table {
			res.metrics[k] = v
		}
		defs = append(defs[:len(defs):len(defs)], perLayer...)
	}
	// Exactly the metrics spec.go names: a layer the workload bypasses
	// reports 0, and a name spec.go does not have is a bug here.
	named := make(map[string]float64, len(defs))
	for _, d := range defs {
		named[d.name] = res.metrics[d.name]
	}
	for name := range res.metrics {
		if _, ok := named[name]; !ok {
			return nil, fmt.Errorf("metric %q is not in spec.go", name)
		}
	}
	res.metrics = named
	return res, nil
}

// runWorkload is measure cut down to what the run's mode owes the driver:
// the end-to-end metrics untraced, the per-layer ones traced.
func runWorkload(w *workload, opt options) (*result, error) {
	res, err := measure(w, opt)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	owed := make(map[string]float64, len(defs))
	for _, d := range defs {
		owed[d.name] = res.metrics[d.name]
	}
	res.metrics = owed
	if !res.correct {
		res.failed = res.attempted // a run that broke an invariant acknowledged nothing trustworthy
	}
	if res.attempted == 0 {
		res.attempted, res.failed, res.correct = 1, 1, false
	}
	return res, nil
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// json renders the result as the one-line object the driver reads.
func (r *result) json() string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]metric, len(r.metrics))}
	for k, v := range r.metrics {
		out.Metrics[k] = metric{v, unitOf(k)}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // NaN or Inf in a metric: a bug in this program
	}
	return string(b)
}

// report prints a run for a human reader.
func report(w *os.File, r *result) {
	fmt.Fprintf(w, "== %s: correct=%v ops=%d failed=%d\n", r.workload, r.correct, r.attempted, r.failed)
	if r.violation != "" {
		fmt.Fprintf(w, "   VIOLATION: %s\n", r.violation)
	}
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "   %-34s %14.4f %s\n", k, r.metrics[k], unitOf(k))
	}
	for _, line := range r.info {
		fmt.Fprintf(w, "   # %s\n", line)
	}
}

// child runs one workload in a process of its own, so that CPU, memory and
// allocation numbers belong to that workload alone, and parses its result.
func child(w *workload, seed int64, seconds float64, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var parsed struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct{ Value float64 }
	}
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &parsed); jerr != nil {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		return nil, fmt.Errorf("%s: unreadable result: %w", w.name, jerr)
	}
	res := &result{workload: w.name, correct: parsed.Correct, attempted: parsed.Attempted,
		failed: parsed.Failed, metrics: make(map[string]float64, len(parsed.Metrics))}
	for k, v := range parsed.Metrics {
		res.metrics[k] = v.Value
	}
	return res, nil
}

// runAll is the no-argument mode: every workload timed, then every workload
// traced, each in its own process; with -repeat, the spread table after.
func runAll(seed int64, seconds float64, repeat int) int {
	fmt.Printf("host: num_cpu=%d GOMAXPROCS=%d %s kernel=%s\n",
		stdruntime.NumCPU(), stdruntime.GOMAXPROCS(0), stdruntime.Version(), kernelRelease())
	code := 0
	runs := make(map[string][]*result) // workload → timed runs
	for r := 0; r < repeat; r++ {
		for _, trace := range []int{0, 1} {
			for i := range workloads {
				w := &workloads[i]
				res, err := child(w, seed+int64(r), seconds, trace)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
					return 1
				}
				if !res.correct {
					code = 1
				}
				if trace == 0 {
					runs[w.name] = append(runs[w.name], res)
				}
				if r == 0 {
					report(os.Stdout, res)
				}
			}
		}
	}
	if repeat > 1 && !spreadTable(os.Stdout, runs) {
		code = 1
	}
	return code
}

// spreadTable prints, per end-to-end metric and workload, the median, the
// quartiles and (max−min)/median over the repeated runs, and flags a metric
// whose interquartile spread exceeds its bound. It reports whether none did.
func spreadTable(w *os.File, runs map[string][]*result) bool {
	ok := true
	fmt.Fprintf(w, "\n%-20s %-14s %12s %12s %12s %10s %9s %7s\n", "workload", "metric", "median", "q1", "q3", "range/med", "iqr/med", "bound")
	for i := range workloads {
		name := workloads[i].name
		for _, d := range endToEnd {
			var xs []float64
			for _, r := range runs[name] {
				xs = append(xs, r.metrics[d.name])
			}
			med := median(xs)
			q1, q3 := quartiles(xs)
			lo, hi := quantile(xs, 0), quantile(xs, 1)
			flag := ""
			if med != 0 && d.name != "setup_s" && (q3-q1)/med > d.bound {
				flag, ok = "  EXCEEDS BOUND", false
			}
			fmt.Fprintf(w, "%-20s %-14s %12.4f %12.4f %12.4f %10.4f %9.4f %7.2f%s\n",
				name, d.name, med, q1, q3, (hi-lo)/med, (q3-q1)/med, d.bound, flag)
		}
	}
	return ok
}
