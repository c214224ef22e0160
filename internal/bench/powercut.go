package bench

import (
	"errors"
	"fmt"
	"time"

	"spotless/internal/types"
	"spotless/internal/ycsb"
)

// The power-cut cell. The interesting regime is a crash landing well after
// the last checkpoint: the victim then holds a long committed tail above
// the stable frontier, which a durable replica replays from local disk
// while a memory-only one must re-download it. The cut lands a few commits
// past a stabilized checkpoint and the outage stays well inside the next
// stride, so the victim's replayed head stays at or above the stable
// frontier while it rejoins — the regime where local disk replaces network
// transfer entirely.
const (
	powerCutInterval = 32 // stable-frontier stride
	powerCutWarmup   = 40 // committed batches before the cut
	powerCutOutage   = 6  // committed batches while the victim is down
)

// PowerCutArm is one arm of the drill: a replica kill-9'd under load and
// restarted, with every byte to or from it metered until it has rejoined.
type PowerCutArm struct {
	Replayed     int           // ledger blocks replayed from local disk at restart
	ChunkBlocks  int           // ledger blocks re-transferred over the network
	ChunkBytes   int           // state-chunk bytes of those transfers
	RejoinBytes  int           // all bytes to/from the victim, restart → rejoined
	Rejoin       time.Duration // restart → caught up with the healthy quorum
	SnapRestored bool          // execution snapshot restored from the WAL at restart
	PreKeys      int           // keys last written before the stable cut (attested state)
	PreKeyMisses int           // of those, reads answered wrongly right after restart
	BelowAnchor  int           // replayed ledger blocks below the snapshot anchor (must be 0)
}

// PowerCutResult is the drill's arm pair.
type PowerCutResult struct {
	Warm PowerCutArm // durable WAL-backed ledger
	Cold PowerCutArm // memory-only control
}

// RunPowerCut runs the kill-9-under-load drill on the simulator twice — once
// with a durable WAL-backed ledger (warm: restart replays local segments and
// fetches only the missing suffix) and once memory-only (cold: restart is
// empty and re-downloads the whole retained chain from the stable height).
func RunPowerCut() (r PowerCutResult, err error) {
	if r.Warm, err = powerCutArm(true); err != nil {
		return
	}
	r.Cold, err = powerCutArm(false)
	return
}

// Verdict fails unless the durable arm replayed its chain from local disk,
// transferred strictly fewer blocks than the control, restored its
// execution snapshot, answered every read of at least 100 pre-checkpoint
// keys correctly before exchanging a message, and replayed nothing below
// the snapshot anchor.
func (r PowerCutResult) Verdict() error {
	w, c := r.Warm, r.Cold
	return errors.Join(
		check(w.Replayed > 0, "the durable replica replayed nothing from local disk"),
		check(w.ChunkBlocks < c.ChunkBlocks, "the durable rejoin transferred %d blocks, the control %d: suffix fetch did not engage",
			w.ChunkBlocks, c.ChunkBlocks),
		check(w.SnapRestored, "the durable replica did not restore its execution snapshot at restart"),
		check(w.PreKeys >= 100, "the stable cut held %d pre-checkpoint keys to attest, want at least 100", w.PreKeys),
		check(w.PreKeyMisses == 0, "the restarted replica answered %d of %d pre-checkpoint-key reads wrongly",
			w.PreKeyMisses, w.PreKeys),
		check(w.BelowAnchor == 0, "the restart replayed %d blocks below the snapshot anchor", w.BelowAnchor))
}

func powerCutArm(durable bool) (PowerCutArm, error) {
	var arm PowerCutArm
	const victim = 3
	// A 1000-key table: the uniform workload writes well over a hundred
	// keys before the stable cut.
	d, reps := newDurableDrill(1, 1000, powerCutInterval, durable)
	r := reps[victim]

	// The cut lands after the warmup, past a persisted checkpoint (so the
	// durable arm has something to resume from) with a committed tail above.
	if !d.until(func() bool {
		s := r.core.StableHeight()
		return d.col.BatchesDone >= powerCutWarmup && s > 0 && r.exec.Ledger().Height() > s
	}) {
		return arm, fmt.Errorf("powercut: victim never held a committed tail above a stable checkpoint")
	}
	d.sim.SetDown(victim, true)
	if r.fs != nil {
		r.fs.Crash()
	}
	// The dead victim's stable snapshot is the attested table at the cut:
	// what a durable restart must serve before replaying above the anchor.
	anchorH, anchorBlob := r.exec.StableSnapshot()
	atCut, err := ycsb.DecodeSnapshot(anchorBlob)
	if err != nil {
		return arm, fmt.Errorf("powercut: stable snapshot at the cut does not decode: %v", err)
	}
	if !d.commits(powerCutOutage) {
		return arm, fmt.Errorf("powercut: outage stalled")
	}
	d.meter = func(from, to types.NodeID, msg types.Message) {
		if from != victim && to != victim {
			return
		}
		arm.RejoinBytes += msg.WireSize()
		if sc, ok := msg.(*types.StateChunk); ok && to == victim {
			arm.ChunkBlocks += len(sc.Blocks)
			arm.ChunkBytes += sc.WireSize()
		}
	}
	// The load pauses for the rejoin so the stable frontier holds still:
	// otherwise the next checkpoint races past the victim's replayed head
	// and every rejoin becomes a full re-root. The idle cluster
	// re-advertises its stable checkpoint, which is how a rejoiner finds it.
	d.sim.SetBatchSource(nil)
	healthyHeight := reps[0].exec.Ledger().Height()
	healthyStable := reps[0].core.StableHeight()
	start := d.sim.Now()
	d.sim.Restart(victim, r.build)
	if durable {
		if r.rejected > 0 {
			return arm, fmt.Errorf("powercut: the durable replica's resume state was rejected at restart")
		}
		st := r.wal.Stats()
		arm.Replayed = st.Replayed
		arm.SnapRestored = st.SnapshotsRestored > 0
		// Forward replay must start at the snapshot anchor, not below it: the
		// restored ledger base sitting under the anchor would mean pre-cut
		// blocks were re-executed instead of served from the attested table.
		if base := r.exec.Ledger().Snapshot().Height; base < anchorH {
			arm.BelowAnchor = int(anchorH - base)
		}
	}
	// Read pre-checkpoint keys immediately after restart, before the victim
	// handles a single message: whatever answers now is what restart alone
	// produced. Keys whose value in the cut snapshot is workload-sized (not
	// the 64-byte initial payload) were last written before the checkpoint —
	// the attested state a durable restart serves and a cold one cannot.
	store := r.exec.Store()
	for k, v := range atCut.Records {
		if len(v) == 64 {
			continue
		}
		arm.PreKeys++
		if string(store.Read(k)) != string(v) {
			arm.PreKeyMisses++
		}
	}
	if !d.until(func() bool {
		return r.core.StableHeight() >= healthyStable && r.exec.Ledger().Height() >= healthyHeight &&
			r.exec.Store().Applied() > 0
	}) {
		return arm, fmt.Errorf("powercut: victim never rejoined (stable=%d/%d ledger=%d/%d)",
			r.core.StableHeight(), healthyStable, r.exec.Ledger().Height(), healthyHeight)
	}
	arm.Rejoin = d.sim.Now() - start
	if err := r.exec.Ledger().Verify(); err != nil {
		return arm, fmt.Errorf("powercut: rejoined ledger does not verify: %v", err)
	}
	return arm, nil
}

// Table renders the two arms side by side.
func (r PowerCutResult) Table() Table {
	t := Table{ID: "powercut",
		Title: fmt.Sprintf("power-cut rejoin, n=%d, checkpoint every %d, crash %d past the checkpoint, %d-batch outage",
			drillN, powerCutInterval, powerCutWarmup%powerCutInterval, powerCutOutage),
		Headers: []string{"variant", "snapshot restored", "pre-ckpt keys served", "replayed below anchor", "replayed from disk", "blocks over network", "state bytes", "rejoin bytes", "rejoin ms (virtual)"}}
	for i, a := range []PowerCutArm{r.Warm, r.Cold} {
		name := [...]string{"durable WAL (O(missing suffix))", "memory-only (O(chain since stable))"}[i]
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprintf("%t", a.SnapRestored),
			fmt.Sprintf("%d/%d", a.PreKeys-a.PreKeyMisses, a.PreKeys),
			fmt.Sprintf("%d", a.BelowAnchor),
			fmt.Sprintf("%d", a.Replayed), fmt.Sprintf("%d", a.ChunkBlocks),
			fmt.Sprintf("%d", a.ChunkBytes), fmt.Sprintf("%d", a.RejoinBytes), lat(a.Rejoin)})
	}
	return t
}
