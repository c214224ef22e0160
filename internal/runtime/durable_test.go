package runtime_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"spotless/internal/runtime"
	"spotless/internal/types"
	"spotless/internal/wal"
	"spotless/internal/ycsb"
)

// assertNoDuplicateRecords fails if any (instance, view) pair appears twice
// in a chain — the signature of a catch-up replay re-appending blocks the
// WAL replay already restored.
func assertNoDuplicateRecords(t *testing.T, blocks []types.BlockRecord) {
	t.Helper()
	seen := make(map[[2]uint64]uint64)
	for _, b := range blocks {
		key := [2]uint64{uint64(b.Instance), uint64(b.View)}
		if prev, dup := seen[key]; dup {
			t.Fatalf("duplicate ledger record for instance %d view %d at heights %d and %d",
				b.Instance, b.View, prev, b.Height)
		}
		seen[key] = b.Height
	}
}

// TestClusterPowerCutDurableRejoin: a durable replica is killed without a
// final sync (kill -9 under load), restarts from its on-disk WAL, and
// rejoins by fetching only the suffix it missed — the replayed prefix never
// travels over the network again.
func TestClusterPowerCutDurableRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time integration test")
	}
	fsys := wal.NewMemFS()
	src := newQueueSource(1, 800, 5)
	done := make(chan struct{}, 1024)
	cl, err := runtime.NewCluster(runtime.ClusterConfig{
		N: 4, Instances: 1, Source: src,
		CheckpointInterval: 4,
		DataDir:            "drill", FSFor: func(int) wal.FS { return fsys },
		OnDone: func(types.Digest) { done <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	await := func(k int, what string) {
		deadline := time.After(30 * time.Second)
		for i := 0; i < k; i++ {
			select {
			case <-done:
			case <-deadline:
				t.Fatalf("timed out waiting for %s (%d/%d batches)", what, i, k)
			}
		}
	}

	const victim = 3
	await(12, "warmup commits")
	// A persisted checkpoint is what makes the restart resumable; wait for
	// the victim to have stabilized (stabilize persists the certificate
	// synchronously before it returns).
	deadline := time.Now().Add(30 * time.Second)
	for cl.Replicas[victim].StableHeight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim never persisted a stable checkpoint")
		}
		select {
		case <-done:
		case <-time.After(50 * time.Millisecond):
		}
	}
	// Cut power when the victim holds committed blocks ABOVE its last
	// checkpoint truncation (head off the interval grid), so the restart
	// has a real tail to replay — a kill landing exactly on a checkpoint
	// boundary would leave an empty (if valid) WAL and prove nothing.
	for {
		if h := cl.Stores[victim].Head(); h > cl.Replicas[victim].StableHeight() && h%4 != 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never held durable blocks above its stable cut")
		}
		select {
		case <-done:
		case <-time.After(10 * time.Millisecond):
		}
	}
	cl.Kill(victim)
	// The frozen store is ground truth for what must replay.
	preHead := cl.Stores[victim].Head()
	preBase := cl.Execs[victim].Ledger().Snapshot().Height
	await(12, "commits during the outage")

	// Meter every state chunk served to the victim after the restart: with
	// the prefix replayed from disk, no transferred block may lie below the
	// pre-cut durable head.
	var mu sync.Mutex
	minChunk := ^uint64(0)
	chunkBlocks := 0
	cl.Transport.SetMeter(func(from, to types.NodeID, msg types.Message) {
		sc, ok := msg.(*types.StateChunk)
		if !ok || to != types.NodeID(victim) {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for _, b := range sc.Blocks {
			chunkBlocks++
			if b.Height < minChunk {
				minChunk = b.Height
			}
		}
	})
	if err := cl.Restart(victim); err != nil {
		t.Fatal(err)
	}
	// Per-commit fsync means the cut loses nothing: the restart must replay
	// exactly the blocks the frozen store held above its snapshot base.
	replayed := uint64(cl.Stores[victim].Stats().Replayed)
	if want := preHead - preBase; replayed != want {
		t.Fatalf("replayed %d blocks from disk, want %d (head %d, base %d)", replayed, want, preHead, preBase)
	}
	if h := cl.Execs[victim].Ledger().Height(); h < preHead {
		t.Fatalf("restart lost durable blocks: ledger height %d, pre-cut head %d", h, preHead)
	}

	await(12, "commits after the restart")
	deadline = time.Now().Add(30 * time.Second)
	for {
		if cl.Replicas[victim].StableHeight() > 0 && cl.Execs[victim].Store().Applied() > 0 &&
			cl.Execs[victim].Ledger().Height() > preHead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("revived replica never rejoined: stable=%d applied=%d ledger=%d (healthy at %d)",
				cl.Replicas[victim].StableHeight(), cl.Execs[victim].Store().Applied(),
				cl.Execs[victim].Ledger().Height(), cl.Execs[0].Ledger().Height())
		}
		select {
		case <-done:
		case <-time.After(100 * time.Millisecond):
		}
	}
	cl.Transport.SetMeter(nil)

	if err := cl.Execs[victim].Ledger().Verify(); err != nil {
		t.Fatalf("revived replica's ledger does not verify: %v", err)
	}
	assertNoDuplicateRecords(t, cl.Execs[victim].Ledger().Blocks(0, 0))
	mu.Lock()
	defer mu.Unlock()
	if chunkBlocks > 0 && minChunk < preHead {
		t.Fatalf("state transfer re-sent height %d, below the replayed head %d — O(chain), not O(suffix)",
			minChunk, preHead)
	}
	t.Logf("replayed %d blocks from disk; %d transferred over the network", replayed, chunkBlocks)
}

// TestClusterRestartRestoresAttestedTable: the tentpole drill. A durable
// replica is killed, the machine loses power, and the restart restores its
// YCSB table from the persisted execution snapshot — byte-identical to the
// attested state at the stable cut, cold keys included, with zero forward
// re-execution below the cut. Every peer stays dead during the check, so
// the table the restart produced is exactly what we observe.
func TestClusterRestartRestoresAttestedTable(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time integration test")
	}
	fsys := wal.NewMemFS()
	src := newQueueSource(1, 800, 5)
	done := make(chan struct{}, 1024)
	cl, err := runtime.NewCluster(runtime.ClusterConfig{
		N: 4, Instances: 1, Source: src, Records: 512,
		CheckpointInterval: 4,
		DataDir:            "snapdrill", FSFor: func(int) wal.FS { return fsys },
		OnDone: func(types.Digest) { done <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	const victim = 2
	deadline := time.Now().Add(30 * time.Second)
	for cl.Stores[victim].Stats().SnapshotsWritten == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim never persisted an execution snapshot")
		}
		select {
		case <-done:
		case <-time.After(20 * time.Millisecond):
		}
	}
	// Freeze the world: every process dies, then the machine loses power.
	// Snapshot saves fsync unconditionally, so the stable snapshot survives.
	for i := range cl.Nodes {
		cl.Kill(i)
	}
	stableH := cl.Replicas[victim].StableHeight()
	blob := cl.Execs[victim].StateSnapshot(stableH)
	if blob == nil {
		t.Fatalf("victim holds no in-memory snapshot at its stable height %d", stableH)
	}
	want, err := ycsb.DecodeSnapshot(blob)
	if err != nil {
		t.Fatalf("victim's stable snapshot does not decode: %v", err)
	}
	fsys.Crash()

	// Restart only the victim: with every peer dead there is no consensus
	// traffic, so the table below is exactly what the restart restored.
	if err := cl.Restart(victim); err != nil {
		t.Fatal(err)
	}
	st := cl.Stores[victim].Stats()
	if st.SnapshotsRestored != 1 || st.RestoreFallbacks != 0 || st.SnapshotsQuarantined != 0 {
		t.Fatalf("restart stats = %+v, want exactly one clean snapshot restore", st)
	}
	if got := cl.Replicas[victim].StableHeight(); got != stableH {
		t.Fatalf("restart resumed at stable height %d, want %d", got, stableH)
	}
	store := cl.Execs[victim].Store()
	if store.Applied() != want.Applied {
		t.Fatalf("restored table applied %d transactions, snapshot attests %d — forward replay ran below the cut",
			store.Applied(), want.Applied)
	}
	dump := store.Dump()
	if len(dump) != len(want.Records) {
		t.Fatalf("restored table has %d records, snapshot has %d", len(dump), len(want.Records))
	}
	cold := 0
	for k, v := range want.Records {
		if string(dump[k]) != string(v) {
			t.Fatalf("restored record %d = %x, attested %x", k, dump[k], v)
		}
		if len(v) == 64 { // initial payload length: never overwritten by the
			cold++ // 16-byte workload values — a genuinely cold key
		}
	}
	if cold == 0 {
		t.Fatal("drill never exercised a cold key; assertion proves nothing")
	}
	t.Logf("restored %d records (%d cold) at cut %d with zero re-execution", len(dump), cold, stableH)
}

// TestClusterSnapshotQuarantineFallback: media corruption on one replica's
// snapshot (bit flip at rest) is detected at restart, quarantined — never
// served — and the replica falls back loudly to forward-replay, then
// rejoins the live cluster anyway. Per-replica filesystems keep the fault
// injection from touching anyone else's disk.
func TestClusterSnapshotQuarantineFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time integration test")
	}
	fss := make([]*wal.MemFS, 4)
	for i := range fss {
		fss[i] = wal.NewMemFS()
	}
	src := newQueueSource(1, 800, 5)
	done := make(chan struct{}, 1024)
	cl, err := runtime.NewCluster(runtime.ClusterConfig{
		N: 4, Instances: 1, Source: src, Records: 256,
		CheckpointInterval: 4,
		DataDir:            "qdrill",
		FSFor:              func(i int) wal.FS { return fss[i] },
		OnDone:             func(types.Digest) { done <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	const victim = 3
	deadline := time.Now().Add(30 * time.Second)
	for cl.Stores[victim].Stats().SnapshotsWritten == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim never persisted an execution snapshot")
		}
		select {
		case <-done:
		case <-time.After(20 * time.Millisecond):
		}
	}
	cl.Kill(victim)
	// Find the on-disk snapshot and flip one bit in its body.
	names, err := fss[victim].ReadDir("qdrill/r3")
	if err != nil {
		t.Fatal(err)
	}
	snapName := ""
	for _, name := range names {
		if strings.HasPrefix(name, "snap-") {
			snapName = name
		}
	}
	if snapName == "" {
		t.Fatal("no snapshot file on the victim's disk")
	}
	path := "qdrill/r3/" + snapName
	size := fss[victim].Size(path)
	if !fss[victim].FlipBit(path, size/2, 5) {
		t.Fatal("bit-flip fault failed")
	}

	if err := cl.Restart(victim); err != nil {
		t.Fatal(err)
	}
	st := cl.Stores[victim].Stats()
	if st.SnapshotsQuarantined != 1 || st.RestoreFallbacks != 1 || st.SnapshotsRestored != 0 {
		t.Fatalf("restart stats = %+v, want quarantine + fallback, no restore", st)
	}
	if fss[victim].Size(path) != -1 {
		t.Fatal("corrupt snapshot still at its live name")
	}
	if fss[victim].Size("qdrill/r3/quarantine-"+snapName) != size {
		t.Fatal("corrupt snapshot deleted, not quarantined")
	}
	// The ledger path is attested independently: the resume survives the
	// rejected snapshot, and the replica rejoins the live cluster.
	if cl.Replicas[victim].StableHeight() == 0 {
		t.Fatal("rejected snapshot also dropped the (independently attested) resume")
	}
	deadline = time.Now().Add(30 * time.Second)
	for cl.Execs[victim].Store().Applied() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("fallback replica never rejoined the cluster")
		}
		select {
		case <-done:
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// TestClusterFullPowerCutRestart: the whole cluster loses power at once
// (every process killed, unsynced bytes dropped), and a fresh cluster over
// the same directories resumes from the persisted stable checkpoints and
// keeps committing — no replica restarts from genesis.
func TestClusterFullPowerCutRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time integration test")
	}
	fsys := wal.NewMemFS()
	src := newQueueSource(1, 800, 5)
	done := make(chan struct{}, 1024)
	cfg := runtime.ClusterConfig{
		N: 4, Instances: 1, Source: src,
		CheckpointInterval: 4,
		DataDir:            "cluster", FSFor: func(int) wal.FS { return fsys },
		OnDone: func(types.Digest) { done <- struct{}{} },
	}
	cl1, err := runtime.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	await := func(what string) {
		deadline := time.After(30 * time.Second)
		for i := 0; i < 12; i++ {
			select {
			case <-done:
			case <-deadline:
				t.Fatalf("timed out waiting for %s (%d/12 batches)", what, i)
			}
		}
	}
	await("warmup commits")
	// Wait for every replica to persist a stable checkpoint, then cut power.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ready := true
		for _, r := range cl1.Replicas {
			if r.StableHeight() == 0 {
				ready = false
			}
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster never stabilized a checkpoint everywhere")
		}
		select {
		case <-done:
		case <-time.After(50 * time.Millisecond):
		}
	}
	minStable := ^uint64(0)
	for _, r := range cl1.Replicas {
		if s := r.StableHeight(); s < minStable {
			minStable = s
		}
	}
	for i := range cl1.Nodes {
		cl1.Kill(i) // every process dies; no store gets a final sync
	}
	fsys.Crash() // the machine loses power: unsynced bytes are gone

	restart := make(chan struct{}, 1024)
	cfg.OnDone = func(types.Digest) { restart <- struct{}{} }
	cl2, err := runtime.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Stop()
	for i, st := range cl2.Stores {
		// Disk must drive the resume: either committed blocks replayed, or —
		// when the cut landed exactly on a checkpoint truncation and the WAL
		// was validly empty — a chain re-rooted at the persisted checkpoint.
		if st.Stats().Replayed == 0 && cl2.Execs[i].Ledger().Snapshot().Height == 0 {
			t.Fatalf("replica %d restarted from genesis, not from disk", i)
		}
	}

	// The restarted cluster must commit new batches and push its stable
	// frontier beyond the pre-cut one — proof it resumed, not restarted.
	committed := 0
	deadline = time.Now().Add(30 * time.Second)
	for {
		advanced := true
		for _, r := range cl2.Replicas {
			if r.StableHeight() <= minStable {
				advanced = false
			}
		}
		if advanced && committed >= 12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted cluster stalled: %d commits, stable=%d/%d/%d/%d (pre-cut %d)",
				committed, cl2.Replicas[0].StableHeight(), cl2.Replicas[1].StableHeight(),
				cl2.Replicas[2].StableHeight(), cl2.Replicas[3].StableHeight(), minStable)
		}
		select {
		case <-restart:
			committed++
		case <-time.After(100 * time.Millisecond):
		}
	}
	for i, ex := range cl2.Execs {
		if err := ex.Ledger().Verify(); err != nil {
			t.Errorf("replica %d ledger does not verify after the power cut: %v", i, err)
		}
		assertNoDuplicateRecords(t, ex.Ledger().Blocks(0, 0))
	}
}

// TestClusterDurableRejectedResumeRejoins: a killed durable replica
// whose manifest carries a checkpoint certificate with one wrong signature
// (the manifest CRC is intact, so the WAL itself accepts it) must refuse
// the resume. It boots with no stable checkpoint and its truncated chain
// reset to genesis, because consensus restarts at delivery 0 and a chain
// based above genesis would desync every appended height; it then rejoins
// over the network and converges with the others.
func TestClusterDurableRejectedResumeRejoins(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time integration test")
	}
	fss := make([]*wal.MemFS, 4)
	for i := range fss {
		fss[i] = wal.NewMemFS()
	}
	src := newQueueSource(1, 400, 5)
	cl, err := runtime.NewCluster(runtime.ClusterConfig{
		N: 4, Instances: 1, Source: src,
		CheckpointInterval: 4,
		DataDir:            "reject",
		FSFor:              func(i int) wal.FS { return fss[i] },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	const victim = 3
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// A truncated chain makes the reset observable: its base is the stable
	// checkpoint, not genesis.
	waitFor("a persisted checkpoint and a truncated chain", func() bool {
		return cl.Replicas[victim].StableHeight() > 0 && cl.Execs[victim].Ledger().Snapshot().Height > 0
	})
	cl.Kill(victim)

	st, rec, err := wal.Open("reject/r3", wal.Config{FS: fss[victim]})
	if err != nil {
		t.Fatal(err)
	}
	ck := rec.Checkpoint
	if ck == nil {
		t.Fatal("the killed replica persisted no checkpoint")
	}
	cert := ck.Cert
	cert.Sigs = append([]types.Signature(nil), cert.Sigs...)
	cert.Sigs[0].Bytes = append([]byte(nil), cert.Sigs[0].Bytes...)
	cert.Sigs[0].Bytes[0] ^= 0xff
	if err := errors.Join(st.SetCheckpoint(cert, ck.ExecHash, ck.Resume, ck.Anchors), st.Close()); err != nil {
		t.Fatal(err)
	}

	// Hold the victim's inbound links while it boots, so what it booted
	// with cannot be overwritten by a state transfer before it is checked.
	isolate := func(drop bool) {
		for p := types.NodeID(0); p < victim; p++ {
			cl.Transport.SetDrop(p, victim, drop)
		}
	}
	isolate(true)
	if err := cl.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if h := cl.Replicas[victim].StableHeight(); h != 0 {
		t.Fatalf("restart resumed from a checkpoint at %d under a forged certificate signature", h)
	}
	lg := cl.Execs[victim].Ledger()
	if base, h := lg.Snapshot().Height, lg.Height(); base != 0 || h != 0 {
		t.Fatalf("rejected resume kept the chain (base %d, head %d), want it reset to genesis", base, h)
	}
	isolate(false)

	drained := func() bool {
		src.mu.Lock()
		defer src.mu.Unlock()
		return len(src.queues[0]) == 0
	}
	waitFor("the load to drain and the ledgers to converge", func() bool {
		if !drained() || cl.Replicas[victim].StableHeight() == 0 {
			return false
		}
		h0, d0 := cl.Execs[0].Ledger().Head()
		for i := 1; i < 4; i++ {
			if h, d := cl.Execs[i].Ledger().Head(); h != h0 || d != d0 {
				return false
			}
		}
		return true
	})
	cl.Stop()
	if err := cl.Execs[victim].Ledger().Verify(); err != nil {
		t.Fatalf("rejoined ledger does not verify: %v", err)
	}
	assertNoDuplicateRecords(t, cl.Execs[victim].Ledger().Blocks(0, 0))
}
