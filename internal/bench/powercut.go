package bench

import (
	"fmt"
	"sync"
	"time"

	"spotless/internal/runtime"
	"spotless/internal/types"
	"spotless/internal/wal"
	"spotless/internal/ycsb"
)

func init() {
	Figures = append(Figures, Figure{
		ID:    "ablation-powercut",
		Title: "Ablation: durable WAL — power-cut rejoin transfers the missing suffix, not the retained chain",
		Run:   PowerCutFigure,
	})
}

// PowerCutOptions parameterizes the power-cut drill. The interesting regime
// is a crash landing well after the last checkpoint: the victim then holds a
// long committed tail above the stable frontier, which a durable replica
// replays from local disk while a memory-only one must re-download it.
type PowerCutOptions struct {
	CheckpointInterval int // stable-frontier stride (default 32)
	Warmup             int // committed batches before the cut (default 40)
	Outage             int // committed batches while the victim is down (default 6)
}

// WithDefaults resolves the zero values. The defaults place the cut a few
// commits past a stabilized checkpoint and keep the outage well inside the
// next stride, so the victim's replayed head stays at or above the stable
// frontier while it rejoins — the regime where local disk replaces network
// transfer entirely.
func (o PowerCutOptions) WithDefaults() PowerCutOptions {
	if o.CheckpointInterval == 0 {
		o.CheckpointInterval = 32
	}
	if o.Warmup == 0 {
		o.Warmup = 40
	}
	if o.Outage == 0 {
		o.Outage = 6
	}
	return o
}

// PowerCutArm is one arm of the drill: a replica kill-9'd under load and
// restarted, with every byte to or from it metered until it has rejoined.
type PowerCutArm struct {
	Durable      bool
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

// pcSource is a paced FIFO batch source: it feeds one consensus lane at full
// speed until SetPace installs a minimum spacing between batches. The drill
// paces the tail of the run so the healthy quorum's checkpoint frontier
// advances slowly while the victim's fetch round-trips — the regime a real
// deployment is in, where a process restart is fast relative to the
// checkpoint stride.
type pcSource struct {
	mu   sync.Mutex
	q    []*types.Batch
	pace time.Duration
	last time.Time
}

func newPCSource(batches, size int) *pcSource {
	wl := ycsb.NewWorkload(1, types.ClientIDBase, 1000, 16)
	s := &pcSource{}
	for j := 0; j < batches; j++ {
		s.q = append(s.q, wl.NextBatch(size))
	}
	return s
}

func (s *pcSource) SetPace(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pace = d
}

// Next implements runtime.BatchSource.
func (s *pcSource) Next(instance int32, _ time.Duration) *types.Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	if instance != 0 || len(s.q) == 0 {
		return nil
	}
	if s.pace > 0 && time.Since(s.last) < s.pace {
		return nil
	}
	s.last = time.Now()
	b := s.q[0]
	s.q = s.q[1:]
	return b
}

// RunPowerCut runs the kill-9-under-load drill twice — once with a durable
// WAL-backed ledger (warm: restart replays local segments and fetches only
// the missing suffix) and once memory-only (cold: restart is empty and
// re-downloads the whole retained chain from the stable height).
func RunPowerCut(o PowerCutOptions) (warm, cold PowerCutArm, err error) {
	o = o.WithDefaults()
	if warm, err = powerCutArm(true, o); err != nil {
		return
	}
	cold, err = powerCutArm(false, o)
	return
}

func powerCutArm(durable bool, o PowerCutOptions) (PowerCutArm, error) {
	arm := PowerCutArm{Durable: durable}
	const victim = 3
	src := newPCSource(o.Warmup+o.Outage+4*o.CheckpointInterval, 5)
	done := make(chan struct{}, 4096)
	cfg := runtime.ClusterConfig{
		N: 4, Instances: 1, Source: src,
		CheckpointInterval: o.CheckpointInterval,
		OnDone: func(types.Digest) {
			select {
			case done <- struct{}{}:
			default:
			}
		},
	}
	if durable {
		cfg.DataDir = "powercut"
		fsys := wal.NewMemFS()
		cfg.FSFor = func(int) wal.FS { return fsys }
	}
	cl, err := runtime.NewCluster(cfg)
	if err != nil {
		return arm, err
	}
	defer cl.Stop()

	await := func(k int, what string) error {
		deadline := time.After(60 * time.Second)
		for i := 0; i < k; i++ {
			select {
			case <-done:
			case <-deadline:
				return fmt.Errorf("powercut: timed out waiting for %s (%d/%d batches)", what, i, k)
			}
		}
		return nil
	}
	if err := await(o.Warmup, "warmup commits"); err != nil {
		return arm, err
	}
	// Pace the rest of the run: the stable frontier must advance slowly and
	// predictably relative to the kill, the restart, and the rejoin, or the
	// next checkpoint stride races past the victim's replayed head and turns
	// every rejoin into a full re-root regardless of what disk preserved.
	src.SetPace(15 * time.Millisecond)
	// The cut must land after a persisted checkpoint (so the durable arm has
	// something to resume from) with a committed tail above it.
	deadline := time.Now().Add(60 * time.Second)
	for cl.Replicas[victim].StableHeight() == 0 ||
		cl.Execs[victim].Ledger().Height() <= cl.Replicas[victim].StableHeight() {
		if time.Now().After(deadline) {
			return arm, fmt.Errorf("powercut: victim never held a committed tail above a stable checkpoint")
		}
		select {
		case <-done:
		case <-time.After(10 * time.Millisecond):
		}
	}
	cl.Kill(victim)
	// The victim's event loop is stopped: its retained stable snapshot is the
	// attested table at the cut — exactly what a durable restart must serve
	// before replaying a single block above the anchor.
	anchorH, anchorBlob := cl.Execs[victim].StableSnapshot()
	var atCut *ycsb.TableSnapshot
	if anchorBlob != nil {
		if atCut, err = ycsb.DecodeSnapshot(anchorBlob); err != nil {
			return arm, fmt.Errorf("powercut: stable snapshot at the cut does not decode: %v", err)
		}
	}
	if err := await(o.Outage, "outage commits"); err != nil {
		return arm, err
	}
	var mu sync.Mutex
	cl.Transport.SetMeter(func(from, to types.NodeID, msg types.Message) {
		if from != victim && to != victim {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		arm.RejoinBytes += msg.WireSize()
		if sc, ok := msg.(*types.StateChunk); ok && to == victim {
			arm.ChunkBlocks += len(sc.Blocks)
			arm.ChunkBytes += sc.WireSize()
		}
	})
	healthyHeight := cl.Execs[0].Ledger().Height()
	healthyStable := cl.Replicas[0].StableHeight()
	start := time.Now()
	if err := cl.Restart(victim); err != nil {
		return arm, err
	}
	if durable {
		st := cl.Stores[victim].Stats()
		arm.Replayed = st.Replayed
		arm.SnapRestored = st.SnapshotsRestored > 0
		// Forward replay must start at the snapshot anchor, not below it: the
		// restored ledger base sitting under the anchor would mean pre-cut
		// blocks were re-executed instead of served from the attested table.
		if base := cl.Execs[victim].Ledger().Snapshot().Height; base < anchorH {
			arm.BelowAnchor = int(anchorH - base)
		}
	}
	// Read pre-checkpoint keys immediately after restart, before the victim
	// exchanges a single message: whatever answers now is what restart alone
	// produced. Keys whose value in the cut snapshot is workload-sized (not
	// the 64-byte initial payload) were last written before the checkpoint —
	// the attested state a durable restart serves and a cold one cannot.
	if atCut != nil {
		store := cl.Execs[victim].Store()
		for k, v := range atCut.Records {
			if len(v) == 64 {
				continue
			}
			arm.PreKeys++
			if string(store.Read(k)) != string(v) {
				arm.PreKeyMisses++
			}
		}
	}
	deadline = time.Now().Add(60 * time.Second)
	for {
		if cl.Replicas[victim].StableHeight() >= healthyStable &&
			cl.Execs[victim].Ledger().Height() >= healthyHeight &&
			cl.Execs[victim].Store().Applied() > 0 {
			break
		}
		if time.Now().After(deadline) {
			return arm, fmt.Errorf("powercut: victim never rejoined (stable=%d/%d ledger=%d/%d)",
				cl.Replicas[victim].StableHeight(), healthyStable,
				cl.Execs[victim].Ledger().Height(), healthyHeight)
		}
		select {
		case <-done:
		case <-time.After(5 * time.Millisecond):
		}
	}
	arm.Rejoin = time.Since(start)
	cl.Transport.SetMeter(nil)
	if err := cl.Execs[victim].Ledger().Verify(); err != nil {
		return arm, fmt.Errorf("powercut: rejoined ledger does not verify: %v", err)
	}
	return arm, nil
}

// PowerCutTable renders the two arms side by side.
func PowerCutTable(warm, cold PowerCutArm, o PowerCutOptions) Table {
	t := Table{ID: "ablation-powercut",
		Title: fmt.Sprintf("power-cut rejoin, n=4, checkpoint every %d, crash %d past the checkpoint, %d-batch outage",
			o.CheckpointInterval, o.Warmup%o.CheckpointInterval, o.Outage),
		Headers: []string{"variant", "snapshot restored", "pre-ckpt keys served", "replayed below anchor", "replayed from disk", "blocks over network", "state bytes", "rejoin bytes", "rejoin ms"}}
	for _, a := range []PowerCutArm{warm, cold} {
		name := "memory-only (O(chain since stable))"
		if a.Durable {
			name = "durable WAL (O(missing suffix))"
		}
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprintf("%t", a.SnapRestored),
			fmt.Sprintf("%d/%d", a.PreKeys-a.PreKeyMisses, a.PreKeys),
			fmt.Sprintf("%d", a.BelowAnchor),
			fmt.Sprintf("%d", a.Replayed), fmt.Sprintf("%d", a.ChunkBlocks),
			fmt.Sprintf("%d", a.ChunkBytes), fmt.Sprintf("%d", a.RejoinBytes), lat(a.Rejoin)})
	}
	return t
}

// PowerCutFigure adapts the drill to the figure runner (the drill is
// CI-sized already; quick changes nothing).
func PowerCutFigure(bool) []Table {
	o := PowerCutOptions{}.WithDefaults()
	warm, cold, err := RunPowerCut(o)
	if err != nil {
		return []Table{{ID: "ablation-powercut", Title: "power-cut drill failed",
			Headers: []string{"error"}, Rows: [][]string{{err.Error()}}}}
	}
	return []Table{PowerCutTable(warm, cold, o)}
}
