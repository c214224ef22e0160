package bench

import (
	"reflect"
	"strings"
	"testing"
)

// TestCrashSoakNoDivergence: the headline invariant as a regression bar.
// Across seeded kill-9/disk-fault/restart schedules, every restarted
// replica's table converges byte-for-byte with the never-crashed control —
// and the sweep must exercise both recovery paths: clean snapshot restores
// AND the corruption signature (fallback or quarantine). A soak that only
// ever saw the happy path proves nothing about the fault matrix. The
// uniform workload must also have written at least 200 of the 256 keys, so
// the comparison covers cold keys for real.
func TestCrashSoakNoDivergence(t *testing.T) {
	res := RunCrashSoak(CrashSoakOptions{})
	for _, s := range res.Seeds {
		if s.Diverged || s.Forked || s.Stalled {
			t.Errorf("seed %d diverged or stalled after %v:\n%s", s.Seed, s.Faults, s.Report)
		}
		if s.Keys < 200 {
			t.Errorf("seed %d: only %d of %d keys hold a workload-written value", s.Seed, s.Keys, res.Options.Records)
		}
	}
	if res.Divergent != 0 {
		t.Fatalf("%d of %d seeds diverged", res.Divergent, len(res.Seeds))
	}
	if res.Restored == 0 {
		t.Fatal("soak never exercised a snapshot restore")
	}
	if res.Fallbacks+res.Quarantined == 0 {
		t.Fatal("soak never exercised the corruption/loss path")
	}
}

// TestCrashSoakDeterministic: a crash-soak seed is a pure function of the
// seed — faults, recovery tallies, key coverage and the virtual time to
// convergence all replay exactly, so a failing seed can be rerun.
func TestCrashSoakDeterministic(t *testing.T) {
	o := CrashSoakOptions{Seeds: 3}
	a, b := RunCrashSoak(o), RunCrashSoak(o)
	if !reflect.DeepEqual(a, b) {
		ta, tb := CrashSoakTable(a), CrashSoakTable(b)
		t.Fatalf("crash soak not deterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s", ta.String(), tb.String())
	}
}

// TestCrashSoakUnderAdversary: the crash soak composed with the safety
// drill's scheduler adversary (simnet.RandomAdversary drop/delay/partition
// rules, on for the whole run). Kill-9s, disk faults and WAL restarts on
// top of targeted message faults must never fork two ledgers. Convergence
// is not asserted: the drop rules never lift, so some seeds starve, like
// the safety drill's idle seeds. A starved seed may stall before its first
// kill, so at least half the seeds must finish every episode for the
// no-fork result to cover real kill/restart cycles.
func TestCrashSoakUnderAdversary(t *testing.T) {
	res := RunCrashSoak(CrashSoakOptions{adversary: true})
	unconverged := 0
	for _, s := range res.Seeds {
		if s.Forked {
			t.Errorf("seed %d forked under the adversary after %v:\n%s", s.Seed, s.Faults, s.Report)
		}
		if s.Diverged {
			unconverged++
		}
	}
	if done := len(res.Seeds) - res.Stalled; 2*done < len(res.Seeds) {
		t.Errorf("only %d of %d seeds finished their kill/restart episodes", done, len(res.Seeds))
	}
	t.Logf("%d of %d seeds stalled, %d did not converge (starved by the adversary)",
		res.Stalled, len(res.Seeds), unconverged)
}

// TestCrashSoakFlagsStall: a seed whose waits run out of virtual time is
// flagged, not passed. A checkpoint stride far beyond the warmup's reach
// stalls the seed before its first kill, so it records no fault.
func TestCrashSoakFlagsStall(t *testing.T) {
	res := RunCrashSoak(CrashSoakOptions{Seeds: 1, CheckpointInterval: 1 << 20})
	if res.Stalled != 1 || !res.Seeds[0].Stalled {
		t.Fatalf("stalled seeds = %d, want 1:\n%s", res.Stalled, res.Seeds[0].Report)
	}
	if s := res.Seeds[0]; len(s.Faults) != 0 || !strings.Contains(s.Report, "warmup") {
		t.Fatalf("faults %v, report %q: want no fault and a warmup stall", s.Faults, s.Report)
	}
}
