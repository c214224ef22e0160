package runtime_test

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spotless/internal/core"
	"spotless/internal/crypto"
	"spotless/internal/ledger"
	"spotless/internal/runtime"
	"spotless/internal/transport"
	"spotless/internal/types"
	"spotless/internal/wal"
	"spotless/internal/ycsb"
)

// WAL segment layout (internal/wal/segment.go): a 48-byte header, then
// records framed as u32 length | u32 crc32c(payload) | payload.
const (
	segHeaderSize = 48
	recordSize    = 8 + types.BlockRecordWireSize
)

// TestOpenDurableChainBelowCheckpointResets: a bit flip below the certified
// height leaves a replayed chain that cannot vouch for the persisted
// checkpoint. OpenDurable must reset to genesis and return no resume even
// when the caller gave wal.Config no Logf.
func TestOpenDurableChainBelowCheckpointResets(t *testing.T) {
	fsys := wal.NewMemFS()
	st, _, err := wal.Open("vouch", wal.Config{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	lg := ledger.New()
	lg.Bind(st)
	for v := 1; v <= 10; v++ {
		lg.Append(types.Commit{Instance: 0, View: types.View(v), Proposal: types.Digest{byte(v)}}, types.Digest{0xEE, byte(v)})
	}
	cut, _ := lg.Block(7)
	if err := st.SetCheckpoint(types.CheckpointCert{Height: 8}, types.Digest{0xE}, cut.Hash, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !fsys.FlipBit("vouch/seg-0000000000000000.wal", segHeaderSize+3*recordSize+8+3, 2) {
		t.Fatal("bit-flip fault failed")
	}

	lg2, st2, res, snap, err := runtime.OpenDurable("vouch", wal.Config{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if res != nil || snap != nil {
		t.Fatalf("resume %+v (snapshot %d bytes) from a chain that cannot vouch for it", res, len(snap))
	}
	if h := lg2.Height(); h != 0 || lg2.Snapshot().Height != 0 {
		t.Fatalf("chain kept at height %d (base %d), want a reset to genesis", h, lg2.Snapshot().Height)
	}
}

// forgeLastRecord rewrites the newest record in a replica's WAL directory
// with a different result digest and a valid checksum: damage the framing
// cannot see, which only the replayed hash chain catches.
func forgeLastRecord(t *testing.T, fsys *wal.MemFS, dir string) {
	t.Helper()
	names, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := ""
	for _, name := range names { // sorted: the last non-empty segment wins
		if strings.HasPrefix(name, "seg-") && fsys.Size(dir+"/"+name) >= segHeaderSize+recordSize {
			path = dir + "/" + name
		}
	}
	if path == "" {
		t.Fatal("no WAL record on the victim's disk")
	}
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	rec := segHeaderSize + (len(data)-segHeaderSize)/recordSize*recordSize - recordSize
	payload := data[rec+8 : rec+recordSize]
	payload[116] ^= 0xFF // first byte of the result digest
	binary.LittleEndian.PutUint32(data[rec+4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if f, err = fsys.OpenFile(path, os.O_WRONLY|os.O_TRUNC, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestClusterForgedRecordDurableRejoin: a killed durable replica whose WAL
// holds a record with a valid checksum but a forged result restarts with the
// verified prefix (the cluster passes wal.Config no Logf, so the replay
// error must not be logged through a nil function), keeps its persisted
// checkpoint, and rejoins over the network.
func TestClusterForgedRecordDurableRejoin(t *testing.T) {
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
		N: 4, Instances: 1, Source: src,
		CheckpointInterval: 4,
		DataDir:            "forge",
		FSFor:              func(i int) wal.FS { return fss[i] },
		OnDone:             func(types.Digest) { done <- struct{}{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	const victim = 3
	deadline := time.Now().Add(30 * time.Second)
	for {
		stable := cl.Replicas[victim].StableHeight()
		if h := cl.Stores[victim].Head(); stable > 0 && h > stable && h%4 != 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never held durable blocks above a stable checkpoint")
		}
		select {
		case <-done:
		case <-time.After(10 * time.Millisecond):
		}
	}
	cl.Kill(victim)
	preHead := cl.Stores[victim].Head()
	forgeLastRecord(t, fss[victim], "forge/r3")

	if err := cl.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if h := cl.Execs[victim].Ledger().Height(); h != preHead-1 {
		t.Fatalf("restart kept ledger height %d, want %d (the forged record at %d dropped)", h, preHead-1, preHead-1)
	}
	if cl.Replicas[victim].StableHeight() == 0 {
		t.Fatal("restart dropped the persisted checkpoint the verified prefix still vouches for")
	}
	deadline = time.Now().Add(30 * time.Second)
	for cl.Execs[victim].Ledger().Height() <= preHead {
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica never rejoined: ledger %d, pre-kill head %d", cl.Execs[victim].Ledger().Height(), preHead)
		}
		select {
		case <-done:
		case <-time.After(50 * time.Millisecond):
		}
	}
	cl.Stop()
	if err := cl.Execs[victim].Ledger().Verify(); err != nil {
		t.Fatalf("rejoined ledger does not verify: %v", err)
	}
	assertNoDuplicateRecords(t, cl.Execs[victim].Ledger().Blocks(0, 0))
}

// TestAssembleTCPShardedIntake drives the shipped replica wiring: four
// replicas assembled over loopback TCP with the request intake (nil Source),
// transport-side signature screening and one worker per instance. A TCP
// client completes batches on f+1 matching Informs, and a batch re-sent after
// it executed is answered from the reply cache without growing any ledger.
func TestAssembleTCPShardedIntake(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network integration test")
	}
	const n, m, batches = 4, 4, 8
	f := (n - 1) / 3
	ids := []types.NodeID{0, 1, 2, 3, types.ClientIDBase}
	ring := crypto.NewKeyring([]byte("assemble-tcp"), ids)

	trs := make([]*transport.TCP, n)
	addrs := make(map[types.NodeID]string, n)
	for i := range trs {
		prov, _ := ring.Provider(types.NodeID(i))
		trs[i] = transport.New(transport.Config{ID: types.NodeID(i), Listen: "127.0.0.1:0", Crypto: prov})
		if err := trs[i].Start(); err != nil {
			t.Fatal(err)
		}
		defer trs[i].Close()
		addrs[types.NodeID(i)] = trs[i].Addr()
	}
	reps := make([]*runtime.Assembled, n)
	for i := range reps {
		if err := trs[i].DialPeers(addrs); err != nil {
			t.Fatal(err)
		}
		prov, _ := ring.Provider(types.NodeID(i))
		cfg := core.DefaultConfig(n, m)
		cfg.InitialRecordingTimeout = 150 * time.Millisecond
		cfg.InitialCertifyTimeout = 150 * time.Millisecond
		cfg.MinTimeout = 150 * time.Millisecond / 8
		cfg.IdleBackoff = 25 * time.Millisecond
		cfg.CheckpointInterval = 128
		r, err := runtime.Assemble(runtime.ReplicaSpec{
			Node:      runtime.NodeConfig{ID: types.NodeID(i), N: n, F: f, Transport: trs[i], Crypto: prov, Workers: m},
			Consensus: cfg,
			Records:   1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		reps[i] = r
	}

	var collector atomic.Pointer[runtime.Client]
	completed := make(chan types.Digest, 2*batches)
	collector.Store(runtime.NewClient(f, func(id types.Digest) { completed <- id }))
	cprov, _ := ring.Provider(types.ClientIDBase)
	ctr := transport.New(transport.Config{ID: types.ClientIDBase, Peers: addrs, Crypto: cprov})
	ctr.Register(types.ClientIDBase, func(from types.NodeID, msg types.Message) { collector.Load().Receive(from, msg) })
	if err := ctr.Start(); err != nil {
		t.Fatal(err)
	}
	defer ctr.Close()
	for _, r := range reps {
		r.Node.Start()
	}

	wl := ycsb.NewWorkload(3, types.ClientIDBase, 1000, 16)
	open := make(map[types.Digest]int, batches)
	var sent []*types.Batch
	for j := 0; j < batches; j++ {
		b := wl.NextBatch(5)
		sent = append(sent, b)
		open[b.ID] = j
		ctr.Send(types.ClientIDBase, types.NodeID(j%n), &types.Request{Batch: b})
	}
	// The client timer (§5): an unanswered request goes to the next replica.
	retry := time.NewTicker(500 * time.Millisecond)
	defer retry.Stop()
	deadline := time.After(30 * time.Second)
	for tries := 1; len(open) > 0; {
		select {
		case id := <-completed:
			delete(open, id)
		case <-retry.C:
			for _, j := range open {
				ctr.Send(types.ClientIDBase, types.NodeID((j+tries)%n), &types.Request{Batch: sent[j]})
			}
			tries++
		case <-deadline:
			t.Fatalf("%d of %d batches completed over TCP before the deadline", batches-len(open), batches)
		}
	}

	// Every replica executes every batch exactly once.
	for i, r := range reps {
		for r.Exec.Ledger().Height() < batches {
			select {
			case <-deadline:
				t.Fatalf("replica %d executed %d of %d batches", i, r.Exec.Ledger().Height(), batches)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}

	// A retransmission of an executed batch completes from the reply caches:
	// delivery deduplicates it, so an Inform can come from nowhere else.
	collector.Store(runtime.NewClient(f, func(id types.Digest) { completed <- id }))
	for i := 0; i < n; i++ {
		ctr.Send(types.ClientIDBase, types.NodeID(i), &types.Request{Batch: sent[0]})
	}
	// A late answer to an earlier retry may complete another batch first.
	for id := (types.Digest{}); id != sent[0].ID; {
		select {
		case id = <-completed:
		case <-deadline:
			t.Fatal("re-sent batch was not answered by f+1 matching Informs")
		}
	}
	time.Sleep(300 * time.Millisecond)
	for i, r := range reps {
		if h := r.Exec.Ledger().Height(); h != batches {
			t.Errorf("replica %d ledger at height %d after the retransmission, want %d", i, h, batches)
		}
		if err := r.Exec.Ledger().Verify(); err != nil {
			t.Errorf("replica %d ledger: %v", i, err)
		}
	}
}

// TestAssembleRejectsOutOfRange: identities and instance counts from outside
// the program are checked, not trusted (§4.1: 1 ≤ m ≤ n).
func TestAssembleRejectsOutOfRange(t *testing.T) {
	ring := crypto.NewKeyring([]byte("range"), []types.NodeID{0, 1, 2, 3})
	prov, _ := ring.Provider(0)
	for _, tc := range []struct {
		name  string
		id    types.NodeID
		m     int
		valid bool
	}{
		{"in range", 3, 4, true},
		{"id = n", 4, 4, false},
		{"negative id", -1, 4, false},
		{"m > n", 0, 5, false},
		{"m = 0", 0, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := runtime.Assemble(runtime.ReplicaSpec{
				Node:      runtime.NodeConfig{ID: tc.id, N: 4, F: 1, Transport: runtime.NewLocalTransport(), Crypto: prov},
				Consensus: core.DefaultConfig(4, tc.m),
				Records:   16,
			})
			if (err == nil) != tc.valid {
				t.Fatalf("Assemble error = %v, want valid=%v", err, tc.valid)
			}
			if r != nil {
				_ = r.Stop()
			}
		})
	}
}

// TestParsePeers: the one -peers parser names every replica exactly once.
func TestParsePeers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		n    int
		want int // peers parsed; 0 means an error
	}{
		{"0=a:1,1=b:2,2=c:3,3=d:4", 4, 4},
		{"0=a:1,1=b:2,2=c:3,3=d:4,", 4, 4},
		{"", 4, 0},
		{"0=a:1,1=b:2,2=c:3,5=d:4", 4, 0}, // id outside [0,n)
		{"0=a:1,1=b:2,2=c:3,-1=d:4", 4, 0},
		{"0=a:1,1=b:2,1=c:3,3=d:4", 4, 0}, // duplicate
		{"0=a:1,1=b:2,2=c:3", 4, 0},       // count mismatch
		{"0=a:1,1=b:2,2=c:3,3", 4, 0},     // no address
		{"0=a:1,1=b:2,2=c:3,x=d:4", 4, 0}, // no id
	} {
		peers, err := runtime.ParsePeers(tc.in, tc.n)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("ParsePeers(%q, %d) = %v, want an error", tc.in, tc.n, peers)
			}
			continue
		}
		if err != nil || len(peers) != tc.want || peers[3] != "d:4" {
			t.Errorf("ParsePeers(%q, %d) = %v, %v", tc.in, tc.n, peers, err)
		}
	}
}

// TestClientCompletesOnFPlusOneMatchingInforms: f divergent results plus one
// matching result do not complete a batch, and neither does a replica
// repeating itself; f+1 matching results from distinct replicas do (§5).
func TestClientCompletesOnFPlusOneMatchingInforms(t *testing.T) {
	for _, f := range []int{1, 2} {
		var done []types.Digest
		c := runtime.NewClient(f, func(id types.Digest) { done = append(done, id) })
		id, good, bad := types.Digest{1}, types.Digest{0xA}, types.Digest{0xB}
		inform := func(r int, results types.Digest) {
			c.Receive(types.NodeID(r), &types.Inform{Replica: types.NodeID(r), BatchID: id, Results: results})
		}
		for r := 0; r < f; r++ {
			inform(r, bad)
		}
		inform(f, good)
		inform(f, good)
		if len(done) != 0 {
			t.Fatalf("f=%d: completed on %d divergent Informs plus one matching replica", f, f)
		}
		for r := f + 1; r <= 2*f; r++ {
			inform(r, good)
		}
		if len(done) != 1 || done[0] != id || c.CompletedCount() != 1 {
			t.Fatalf("f=%d: %d completions after f+1 matching Informs, want 1", f, len(done))
		}
	}
}
