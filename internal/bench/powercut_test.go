package bench

import "testing"

// TestPowerCutDrill: the -powercut verdict as a test. The durable arm
// replays its chain from disk, transfers strictly fewer blocks than the
// memory-only control, restores its execution snapshot, answers every
// pre-checkpoint-key read correctly before exchanging a message — over at
// least 100 such keys — and replays nothing below the snapshot anchor.
func TestPowerCutDrill(t *testing.T) {
	warm, cold, err := RunPowerCut(PowerCutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Replayed == 0 {
		t.Error("durable replica replayed nothing from local disk")
	}
	if warm.ChunkBlocks >= cold.ChunkBlocks {
		t.Errorf("durable rejoin transferred %d blocks, control %d", warm.ChunkBlocks, cold.ChunkBlocks)
	}
	if !warm.SnapRestored {
		t.Error("durable replica did not restore its execution snapshot")
	}
	if warm.PreKeys < 100 || warm.PreKeyMisses != 0 {
		t.Errorf("pre-checkpoint keys: %d of %d read wrongly, want 0 of ≥ 100", warm.PreKeyMisses, warm.PreKeys)
	}
	if warm.BelowAnchor != 0 {
		t.Errorf("restart replayed %d blocks below the snapshot anchor", warm.BelowAnchor)
	}
}

// TestPowerCutDeterministic: both arms replay exactly on a second run —
// byte counts and virtual rejoin times included.
func TestPowerCutDeterministic(t *testing.T) {
	w1, c1, err := RunPowerCut(PowerCutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w2, c2, err := RunPowerCut(PowerCutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 || c1 != c2 {
		t.Fatalf("power cut not deterministic:\n%+v\n%+v\nvs\n%+v\n%+v", w1, c1, w2, c2)
	}
}
