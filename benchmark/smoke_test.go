package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkJSON is BENCHMARK.json at the repository root, the contract the
// driver reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricJSON `json:"end_to_end"`
	PerLayer   []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// BENCHMARK.json and the tables in spec.go say the same thing.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, spec.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, spec.go %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, spec.go %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// Every workload runs for about a second, traced, with the layer table at
// minimum iterations: every metric and workload BENCHMARK.json names is
// emitted and no other, and the correctness gate holds. The numbers mean
// nothing at this length; the point is that a change which breaks an API the
// benchmark pins fails here, under plain `go test ./...`.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second each")
	}
	b := readBenchmarkJSON(t)
	var want []string
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		want = append(want, m.Name)
	}
	sort.Strings(want)
	for _, bw := range b.Workloads {
		w := findWorkload(bw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", bw.Name)
		}
		res, err := measure(w, options{seed: 1, seconds: 1, trace: true, traceOut: t.TempDir() + "/trace.jsonl", quick: true})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct {
			t.Errorf("%s: correctness gate: %s", w.name, res.violation)
		}
		if res.attempted == 0 {
			t.Errorf("%s: no operation attempted", w.name)
		}
		var got []string
		for name := range res.metrics {
			got = append(got, name)
		}
		sort.Strings(got)
		if len(got) != len(want) {
			t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", w.name, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Errorf("%s: emitted %q where BENCHMARK.json has %q", w.name, got[i], want[i])
				break
			}
		}
	}
}
