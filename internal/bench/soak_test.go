package bench

import (
	"testing"
	"time"

	"spotless/internal/simnet"
)

// regressionSoakOptions is the CI soak profile: 20 seeds per fault profile,
// default pacemaker, short virtual runs — sized to stay -short-friendly
// next to the safety drill in the race job.
func regressionSoakOptions() SoakOptions {
	return SoakOptions{
		Seeds:      20,
		Instances:  2,
		Duration:   1500 * time.Millisecond,
		Pacemakers: []string{"spotless"},
	}
}

// TestSoakRegressionDefaultPacemaker: across 20 seeded chaos schedules per
// fault profile, the default pacemaker's honest ledgers never fork and the
// time-to-resync tail stays bounded — the paper's "rapid view
// synchronization" claim as a regression bar. The ceiling has ~60%
// headroom over the measured p99 (370ms virtual at calibration); a
// pacemaker or resolution change that slows post-fault recovery trips it.
func TestSoakRegressionDefaultPacemaker(t *testing.T) {
	o := regressionSoakOptions()
	if testing.Short() {
		o.Seeds = 8
	}
	res := RunSoak(o)
	if err := res.Verdict(); err != nil {
		t.Fatal(err)
	}
	const resyncCeiling = 600 * time.Millisecond
	for _, c := range res.Cells {
		if c.Unhealed*10 > c.Faults {
			t.Fatalf("%s/%s: %d of %d faults never resynced (>10%%)", c.Profile, c.Pacemaker, c.Unhealed, c.Faults)
		}
		if c.ResyncP99 > resyncCeiling {
			t.Fatalf("%s/%s: resync p99 %v exceeds the %v ceiling", c.Profile, c.Pacemaker, c.ResyncP99, resyncCeiling)
		}
	}
}

// TestSoakCrashProfile: across 20 seeded kill-9 schedules, a replica that
// crashes mid-soak (all in-memory consensus state lost) and restarts
// amnesiac rejoins through state transfer without ever forking an honest
// ledger. The resync ceiling is looser than the partition/gray/skew bar:
// an amnesiac victim has to re-fetch the stable checkpoint before its
// first post-heal delivery, not merely re-engage its timers.
func TestSoakCrashProfile(t *testing.T) {
	o := regressionSoakOptions()
	o.Profiles = []string{simnet.ProfileCrash}
	if testing.Short() {
		o.Seeds = 8
	}
	res := RunSoak(o)
	if err := res.Verdict(); err != nil {
		t.Fatal(err)
	}
	const resyncCeiling = 900 * time.Millisecond
	for _, c := range res.Cells {
		if c.Unhealed*5 > c.Faults {
			t.Fatalf("%s/%s: %d of %d crash victims never delivered again (>20%%)", c.Profile, c.Pacemaker, c.Unhealed, c.Faults)
		}
		if c.ResyncP99 > resyncCeiling {
			t.Fatalf("%s/%s: crash resync p99 %v exceeds the %v ceiling", c.Profile, c.Pacemaker, c.ResyncP99, resyncCeiling)
		}
	}
}

// TestSoakDeterministic: the full bake-off table — every profile × every
// arm — is a pure function of the seed: two sweeps render byte-identical
// tables on any host. This is what makes a soak number quotable.
func TestSoakDeterministic(t *testing.T) {
	o := SoakOptions{Seeds: 1, Instances: 2, Duration: 1200 * time.Millisecond}
	a, b := RunSoak(o), RunSoak(o)
	ta, tb := a.Table(), b.Table()
	if ta.String() != tb.String() {
		t.Fatalf("soak table not deterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s", ta.String(), tb.String())
	}
	if len(a.Cells) != 9 {
		t.Fatalf("default sweep must cross 3 profiles × 3 arms, got %d cells", len(a.Cells))
	}
	if err := a.Verdict(); err != nil {
		t.Fatal(err)
	}
}
