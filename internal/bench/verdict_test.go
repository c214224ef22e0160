package bench

import (
	"strings"
	"testing"
)

// TestDrillVerdicts feeds each drill's verdict a synthetic result that
// breaks exactly one rule and expects an error naming that rule; the
// unbroken result of every drill passes.
func TestDrillVerdicts(t *testing.T) {
	powerCut := func(breakRule func(*PowerCutResult)) error {
		r := PowerCutResult{
			Warm: PowerCutArm{Replayed: 8, SnapRestored: true, PreKeys: 132},
			Cold: PowerCutArm{ChunkBlocks: 32},
		}
		breakRule(&r)
		return r.Verdict()
	}
	crashSoak := func(breakRule func(*CrashSoakResult)) error {
		r := CrashSoakResult{Seeds: []CrashSoakSeed{{Seed: 1}}, Restored: 1, Fallbacks: 1}
		breakRule(&r)
		return r.Verdict()
	}
	soak := func(breakRule func(*SoakCell)) error {
		c := SoakCell{Profile: "gray", Pacemaker: "spotless", Faults: 8}
		breakRule(&c)
		return SoakResult{Cells: []SoakCell{c}}.Verdict()
	}
	safety := func(breakRule func(*SafetyDrillResult)) error {
		r := SafetyDrillResult{Options: SafetyDrillOptions{Seeds: 1}, Delivered: 100}
		breakRule(&r)
		return r.Verdict()
	}
	fork := []Divergence{{Seed: 1, Position: 7, Report: "seed 1: ledgers diverge at position 7\n"}}

	cases := []struct {
		name string
		err  error
		want string // "" = the verdict passes
	}{
		{"powercut ok", powerCut(func(*PowerCutResult) {}), ""},
		{"powercut no replay", powerCut(func(r *PowerCutResult) { r.Warm.Replayed = 0 }), "replayed nothing"},
		{"powercut no suffix fetch", powerCut(func(r *PowerCutResult) { r.Warm.ChunkBlocks = 32 }), "suffix fetch did not engage"},
		{"powercut no snapshot", powerCut(func(r *PowerCutResult) { r.Warm.SnapRestored = false }), "did not restore its execution snapshot"},
		{"powercut one pre-checkpoint key", powerCut(func(r *PowerCutResult) { r.Warm.PreKeys = 1 }), "want at least 100"},
		{"powercut wrong read", powerCut(func(r *PowerCutResult) { r.Warm.PreKeyMisses = 1 }), "pre-checkpoint-key reads wrongly"},
		{"powercut below anchor", powerCut(func(r *PowerCutResult) { r.Warm.BelowAnchor = 2 }), "below the snapshot anchor"},

		{"crashsoak ok", crashSoak(func(*CrashSoakResult) {}), ""},
		{"crashsoak diverged", crashSoak(func(r *CrashSoakResult) { r.Seeds[0].Diverged, r.Divergent = true, 1 }), "diverged from the never-crashed control"},
		{"crashsoak forked", crashSoak(func(r *CrashSoakResult) {
			r.Seeds[0].Forked, r.Seeds[0].Report, r.Divergent = true, "replicas 1 and 2 delivered different batches\n", 1
		}), "delivered different batches"},
		{"crashsoak stalled", crashSoak(func(r *CrashSoakResult) { r.Seeds[0].Stalled, r.Stalled = true, 1 }), "stalled before finishing"},
		{"crashsoak no restore", crashSoak(func(r *CrashSoakResult) { r.Restored = 0 }), "restored a snapshot"},
		{"crashsoak no corruption path", crashSoak(func(r *CrashSoakResult) { r.Fallbacks = 0 }), "corruption path"},

		{"soak ok", soak(func(*SoakCell) {}), ""},
		{"soak diverged", soak(func(c *SoakCell) { c.Divergent = fork }), "gray/spotless: 1 seeds diverged"},
		{"soak zero faults", soak(func(c *SoakCell) { c.Faults = 0 }), "injected no faults"},

		{"safety ok", safety(func(*SafetyDrillResult) {}), ""},
		{"safety diverged", safety(func(r *SafetyDrillResult) { r.Divergent = fork }), "diverged under the strict rules"},
		{"safety nothing delivered", safety(func(r *SafetyDrillResult) { r.Delivered = 0 }), "no block delivered"},
		{"safety legacy fork", safety(func(r *SafetyDrillResult) { r.Options.Legacy, r.Divergent = true, fork }), ""},
	}
	for _, c := range cases {
		switch {
		case c.want == "" && c.err != nil:
			t.Errorf("%s: verdict %v, want pass", c.name, c.err)
		case c.want != "" && (c.err == nil || !strings.Contains(c.err.Error(), c.want)):
			t.Errorf("%s: verdict %v, want an error naming %q", c.name, c.err, c.want)
		}
	}
}
