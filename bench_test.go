// Package spotless_test hosts one testing.B benchmark per reproduced table
// and figure (deliverable (d)). Benchmarks run the CI-scale (quick) variant
// of each experiment so `go test -bench=.` finishes in minutes; the
// paper-scale sweeps are produced by `go run ./cmd/spotless-bench`.
//
// Each benchmark reports the headline throughput of its figure via
// b.ReportMetric (ktxn/s of the flagship configuration) in addition to the
// usual ns/op.
package spotless_test

import (
	"strconv"
	"testing"

	"spotless/internal/bench"
)

// runFigure executes a figure's quick variant b.N times and reports the
// first numeric cell of the last row as the headline metric.
func runFigure(b *testing.B, id string) {
	figs, err := bench.Select(id)
	if err != nil {
		b.Fatal(err)
	}
	var tables []bench.Table
	for i := 0; i < b.N; i++ {
		if tables, err = figs[0].Run(true, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	if metric, ok := headline(tables); ok {
		b.ReportMetric(metric, "ktxn/s")
	}
}

func headline(tables []bench.Table) (float64, bool) {
	if len(tables) == 0 || len(tables[0].Rows) == 0 {
		return 0, false
	}
	rows := tables[0].Rows
	last := rows[len(rows)-1]
	for _, cell := range last[1:] {
		if v, err := strconv.ParseFloat(cell, 64); err == nil {
			return v, true
		}
	}
	return 0, false
}

func BenchmarkFig1MessageComplexity(b *testing.B)   { runFigure(b, "fig1") }
func BenchmarkFig7aScalability(b *testing.B)        { runFigure(b, "fig7a") }
func BenchmarkFig7bBatching(b *testing.B)           { runFigure(b, "fig7b") }
func BenchmarkFig7cThroughputLatency(b *testing.B)  { runFigure(b, "fig7c") }
func BenchmarkFig7dTxnSize(b *testing.B)            { runFigure(b, "fig7d") }
func BenchmarkFig7eFailures(b *testing.B)           { runFigure(b, "fig7e") }
func BenchmarkFig7fFailureRatio(b *testing.B)       { runFigure(b, "fig7f") }
func BenchmarkFig8SpotLessFailures(b *testing.B)    { runFigure(b, "fig8") }
func BenchmarkFig9LatencyFailures(b *testing.B)     { runFigure(b, "fig9") }
func BenchmarkFig10ParallelProcessing(b *testing.B) { runFigure(b, "fig10") }
func BenchmarkFig11Byzantine(b *testing.B)          { runFigure(b, "fig11") }
func BenchmarkFig12Timeline(b *testing.B)           { runFigure(b, "fig12") }
func BenchmarkFig13Instances(b *testing.B)          { runFigure(b, "fig13") }
func BenchmarkFig14aCores(b *testing.B)             { runFigure(b, "fig14a") }
func BenchmarkFig14bBandwidth(b *testing.B)         { runFigure(b, "fig14b") }
func BenchmarkFig14cdRegions(b *testing.B)          { runFigure(b, "fig14cd") }
func BenchmarkFig15SingleInstance(b *testing.B)     { runFigure(b, "fig15") }

// BenchmarkSpotLessHeadline is the flagship single point: SpotLess at the
// quick scale with defaults (paper: Figure 7(a) right edge).
func BenchmarkSpotLessHeadline(b *testing.B) {
	var tput float64
	for i := 0; i < b.N; i++ {
		res := bench.Run(bench.Options{Protocol: bench.SpotLess, N: 32})
		tput = res.Throughput
	}
	b.ReportMetric(tput/1000, "ktxn/s")
}

// BenchmarkAblations regenerates the design-choice ablation tables:
// geo fast path, message buffering, and QC-verification cost.
func BenchmarkAblations(b *testing.B) { runFigure(b, "ablation") }
