package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"spotless/internal/core"
	"spotless/internal/crypto"
	"spotless/internal/dissem"
	"spotless/internal/ledger"
	"spotless/internal/runtime"
	"spotless/internal/transport"
	"spotless/internal/types"
	"spotless/internal/wal"
	"spotless/internal/ycsb"
)

// realCluster is one running four-replica deployment on wall time: either
// this directory's own TCP assembly (transport + runtime + core, the wiring
// cmd/spotless-replica does per process) or the program's runtime.NewCluster.
type realCluster struct {
	w      *workload
	n, f   int
	nodes  []*runtime.Node
	reps   []*core.Replica
	execs  []*runtime.ReplicaExecutor
	layers []*dissem.Layer

	trs []*transport.TCP // replica endpoints (tcp)
	ctr *transport.TCP   // client endpoint (tcp)

	cl        *runtime.Cluster // cluster substrate
	dir       string           // WAL directory, removed by cleanup
	wireBytes atomic.Uint64    // modelled wire bytes seen by the LocalTransport meter
}

// scratchDir is where WAL directories and default trace files go: inside the
// working directory, because the benchmark may not write outside its checkout.
const scratchDir = ".bench_tmp"

func startReal(w *workload, c *client, tr *tracer) (*realCluster, error) {
	rc := &realCluster{w: w, n: w.n, f: (w.n - 1) / 3}
	var err error
	if w.substrate == "cluster" {
		err = rc.startCluster(c, tr)
	} else {
		err = rc.startTCP(c, tr)
	}
	if err != nil {
		rc.stop()
		rc.cleanup()
		return nil, err
	}
	c.replay = rc.replay
	return rc, nil
}

func (rc *realCluster) startTCP(c *client, tr *tracer) error {
	w, n, f := rc.w, rc.n, rc.f
	ids := make([]types.NodeID, 0, n+1)
	for i := 0; i < n; i++ {
		ids = append(ids, types.NodeID(i))
	}
	ids = append(ids, types.ClientIDBase)
	ring := crypto.NewKeyring([]byte("spotless-benchmark"), ids)
	provider := func(id types.NodeID) (crypto.Provider, error) {
		p, err := ring.Provider(id)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			return tracedCrypto{p, tr}, nil
		}
		return p, nil
	}

	addrs := make(map[types.NodeID]string, n)
	provs := make([]crypto.Provider, n)
	for i := 0; i < n; i++ {
		prov, err := provider(types.NodeID(i))
		if err != nil {
			return err
		}
		provs[i] = prov
		t := transport.New(transport.Config{ID: types.NodeID(i), Listen: "127.0.0.1:0", Crypto: prov})
		if err := t.Start(); err != nil {
			return err
		}
		rc.trs = append(rc.trs, t)
		addrs[types.NodeID(i)] = t.Addr()
	}
	for _, t := range rc.trs {
		if err := t.DialPeers(addrs); err != nil {
			return err
		}
	}

	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		var trans runtime.Transport = rc.trs[i]
		if tr != nil {
			trans = &tracedTransport{inner: rc.trs[i], t: tr, c: c}
		}
		exec := runtime.NewReplicaExecutor(id, ycsb.NewStore(tableRecords, tableRecordSize), ledger.New(), trans, types.ClientIDBase)
		var executor runtime.Executor = exec
		var host core.StateHost = exec
		if tr != nil {
			te := &tracedExecutor{ReplicaExecutor: exec, t: tr, c: c, node: i}
			executor, host = te, te
		}
		node := runtime.NewNode(runtime.NodeConfig{
			ID: id, N: n, F: f,
			Transport: trans, Crypto: provs[i], Source: c, Executor: executor,
			PreVerified: true, // the transport screens signatures (SetIngress below)
			Workers:     runtime.AutoWorkers(0, w.m),
		})
		cfg := core.DefaultConfig(n, w.m)
		cfg.InitialRecordingTimeout = viewTimeout
		cfg.InitialCertifyTimeout = viewTimeout
		cfg.MinTimeout = minTimeout
		cfg.IdleBackoff = idleBackoff
		cfg.CheckpointInterval = w.ckpt
		cfg.CheckpointFetchCap = ckptFetchCap
		cfg.Host = host
		if w.dissem {
			cfg.Dissem = dissem.New(dissem.Config{N: n, F: f, CodeK: w.codeK, Lane: ownLane})
		}
		rep := core.New(node, cfg)
		node.SetProtocol(rep)
		rc.trs[i].SetIngress(rep, node.Verifier())
		rc.nodes = append(rc.nodes, node)
		rc.reps = append(rc.reps, rep)
		rc.execs = append(rc.execs, exec)
		rc.layers = append(rc.layers, cfg.Dissem)
	}

	cprov, err := provider(types.ClientIDBase)
	if err != nil {
		return err
	}
	rc.ctr = transport.New(transport.Config{ID: types.ClientIDBase, Peers: addrs, Crypto: cprov})
	rc.ctr.Register(types.ClientIDBase, c.Receive)
	if err := rc.ctr.Start(); err != nil {
		return err
	}
	for _, nd := range rc.nodes {
		nd.Start()
	}
	return nil
}

func (rc *realCluster) startCluster(c *client, tr *tracer) error {
	w := rc.w
	cfg := runtime.ClusterConfig{
		N: w.n, Instances: w.m, Source: c,
		Records:            clusterRecords,
		CheckpointInterval: w.ckpt,
		IdleBackoff:        idleBackoff,
		InstanceWorkers:    w.workers,
	}
	if w.durable {
		if err := os.MkdirAll(scratchDir, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(scratchDir, "wal-")
		if err != nil {
			return err
		}
		rc.dir = dir
		cfg.DataDir = dir
		cfg.Fsync = wal.FsyncPerCommit
	}
	if tr != nil {
		cfg.FSFor = func(i int) wal.FS { return tracedFS{wal.OSFS(), tr, i} }
		cfg.Tune = func(i int, cc *core.Config) { cc.Host = tracedHost{cc.Host, tr, i} }
	}
	cl, err := runtime.NewCluster(cfg)
	if err != nil {
		return err
	}
	rc.cl = cl
	rc.nodes, rc.reps, rc.execs = cl.Nodes, cl.Replicas, cl.Execs
	rc.layers = make([]*dissem.Layer, w.n)
	// Informs go to this benchmark's client instead of the cluster's own
	// collector, and the meter gives the bytes a wire would have carried.
	cl.Transport.Register(cl.ClientID, c.Receive)
	cl.Transport.SetMeter(func(from, to types.NodeID, msg types.Message) {
		if !from.IsClient() {
			rc.wireBytes.Add(uint64(msg.WireSize()))
		}
		if tr.on() {
			tr.noteSend(c, msg, 1)
		}
	})
	return nil
}

// replay answers a client retransmission the way cmd/spotless-replica's
// request intake does: replicas that already executed the batch re-send
// their Inform from the reply cache.
func (rc *realCluster) replay(id types.Digest) bool {
	answered := false
	for i, e := range rc.execs {
		results, ok := e.Reply(id)
		if !ok {
			continue
		}
		answered = true
		inf := &types.Inform{Replica: types.NodeID(i), BatchID: id, Results: results}
		if rc.cl != nil {
			rc.cl.Transport.Send(types.NodeID(i), rc.cl.ClientID, inf)
		} else {
			rc.trs[i].Send(types.NodeID(i), types.ClientIDBase, inf)
		}
	}
	return answered
}

// egressBytes is what the replicas put on the wire so far.
func (rc *realCluster) egressBytes() uint64 {
	if rc.cl != nil {
		return rc.wireBytes.Load()
	}
	var sum uint64
	for _, t := range rc.trs {
		sum += t.Stats().BytesOut
	}
	return sum
}

func (rc *realCluster) netStats() transport.Stats {
	var s transport.Stats
	for _, t := range rc.trs {
		st := t.Stats()
		s.QueueSheds += st.QueueSheds
		s.IngressDrops += st.IngressDrops
		s.MACRejections += st.MACRejections
		s.DecodeFailures += st.DecodeFailures
	}
	return s
}

func (rc *realCluster) dissemStats() dissem.Stats {
	var s dissem.Stats
	for _, l := range rc.layers {
		if l == nil {
			continue
		}
		st := l.Stats()
		s.PushedBytes += st.PushedBytes
		s.ServedBytes += st.ServedBytes
		s.Backfills += st.Backfills
		s.Requeued += st.Requeued
		s.ChunkPulls += st.ChunkPulls
		s.ChunkRejects += st.ChunkRejects
		s.Reconstructions += st.Reconstructions
		s.ReconstructFails += st.ReconstructFails
	}
	return s
}

// stop halts every replica and endpoint and closes the WAL stores cleanly.
// It is idempotent; the ledgers and tables stay readable afterwards.
func (rc *realCluster) stop() {
	if rc.cl != nil {
		rc.cl.Stop()
		return
	}
	for _, nd := range rc.nodes {
		nd.Stop()
	}
	if rc.ctr != nil {
		rc.ctr.Close()
	}
	for _, t := range rc.trs {
		t.Close()
	}
}

// release drops the stopped cluster's tables and ledgers once the
// correctness gate has read them.
func (rc *realCluster) release() {
	rc.nodes, rc.reps, rc.execs, rc.layers, rc.trs, rc.ctr, rc.cl = nil, nil, nil, nil, nil, nil, nil
}

func (rc *realCluster) cleanup() {
	if rc.dir != "" {
		os.RemoveAll(rc.dir)
	}
}

// awaitFirstAck offers one batch and waits until it is acknowledged: the end
// of set-up, and proof that every endpoint is connected before load starts.
// Replicas drop Informs for a client that has not connected yet, so the
// reply caches are asked again every 20 ms rather than after the client timer.
func awaitFirstAck(c *client, rc *realCluster, b *types.Batch, lane int32) error {
	c.offer(b, lane, c.now())
	began := time.Now()
	for tick := 1; c.outstanding() > 0; tick++ {
		if time.Since(began) > 20*time.Second {
			return fmt.Errorf("set-up: first batch not acknowledged within 20 s")
		}
		time.Sleep(200 * time.Microsecond)
		if tick%100 == 0 {
			rc.replay(b.ID)
			c.reoffer()
		}
	}
	return nil
}
