package bench

import "testing"

// TestPowerCutDrill: the power-cut drill passes its verdict — the durable
// arm replays its chain from disk, transfers strictly fewer blocks than the
// memory-only control, restores its execution snapshot, answers every
// pre-checkpoint-key read correctly before exchanging a message — over at
// least 100 such keys — and replays nothing below the snapshot anchor.
func TestPowerCutDrill(t *testing.T) {
	r, err := RunPowerCut()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verdict(); err != nil {
		t.Error(err)
	}
}

// TestPowerCutDeterministic: both arms replay exactly on a second run —
// byte counts and virtual rejoin times included.
func TestPowerCutDeterministic(t *testing.T) {
	a, err := RunPowerCut()
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPowerCut()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("power cut not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}
