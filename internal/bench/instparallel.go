package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"spotless/internal/core"
	"spotless/internal/crypto"
	"spotless/internal/dissem"
	"spotless/internal/ledger"
	"spotless/internal/loadgen"
	"spotless/internal/runtime"
	"spotless/internal/transport"
	"spotless/internal/types"
	"spotless/internal/ycsb"
)

func init() {
	Figures = append(Figures, Figure{
		ID:    "ablation-instance-parallel",
		Title: "Ablation: instance-parallel core — commit throughput vs m × workers",
		Run:   InstanceParallel,
	})
}

// InstParOptions returns the experiment point of the instance-parallel
// sweep: small batches keep consensus costs (not the shared sequential
// execution resource) dominant, so the sweep exposes the event-loop
// bottleneck the sharded core removes.
func InstParOptions(n, m, workers int) Options {
	return Options{
		Protocol:        SpotLess,
		N:               n,
		Instances:       m,
		InstanceWorkers: workers,
		BatchSize:       10,
		Outstanding:     16,
		Measure:         250 * time.Millisecond,
	}
}

// InstanceParallel regenerates the ablation-instance-parallel table:
// commit throughput of the m concurrent instances under the simulator's
// instance-parallel model, sweeping worker lanes. workers=1 models the
// seed's single event loop (every handler of every instance serialized on
// one core); workers=m gives each instance its own lane behind the
// serialized ordering stage, the architecture of the sharded runtime.
func InstanceParallel(quick bool) []Table {
	n := 8
	t := &Table{ID: "ablation-instance-parallel",
		Title:   fmt.Sprintf("instance-parallel core (SpotLess, n=%d, modelled 1 core/lane)", n),
		Headers: []string{"m", "workers", "ktxn/s", "avg latency ms", "speedup vs 1 worker"}}
	for _, m := range []int{2, 8} {
		var base float64
		for _, w := range []int{1, 2, 8} {
			if w > m {
				continue
			}
			res := Run(InstParOptions(n, m, w))
			if w == 1 {
				base = res.Throughput
			}
			speed := "—"
			if w > 1 && base > 0 {
				speed = fmt.Sprintf("%.2fx", res.Throughput/base)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", m), fmt.Sprintf("%d", w),
				ktps(res.Throughput), lat(res.AvgLatency), speed,
			})
		}
	}
	return []Table{*t}
}

// --- real-substrate harness: TCP loopback, sharded runtime nodes ---

// RuntimeOptions describes one instance-parallel experiment on the real
// runtime substrate: n replicas over TCP loopback with real ed25519/HMAC
// crypto, YCSB execution, and ledgers, the m instances sharded over
// InstanceWorkers event-loop goroutines per replica.
type RuntimeOptions struct {
	N               int
	Instances       int
	InstanceWorkers int // 0 sizes adaptively to min(m, GOMAXPROCS)
	BatchSize       int
	Outstanding     int  // closed-loop batches per instance; with Dissem, the total over the n origin lanes
	Dissem          bool // digest ordering via internal/dissem
	DissemCode      int  // erasure-coded dissemination (requires Dissem)
	Warmup          time.Duration
	Measure         time.Duration
}

// rtClient is the aggregate client of a runtime perf run: it owns the
// closed-loop source (guarded — replicas pull batches from their own
// shards) and completes batches on f+1 matching Informs, timestamping
// completions for the measurement window.
type rtClient struct {
	mu      sync.Mutex
	src     *loadgen.Source
	f       int
	start   time.Time
	informs map[types.Digest]map[types.NodeID]bool
	doneAt  []time.Duration
	lat     []time.Duration
	txns    []int
}

func (c *rtClient) now() time.Duration { return time.Since(c.start) }

// Next implements runtime.BatchSource.
func (c *rtClient) Next(instance int32, _ time.Duration) *types.Batch {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.src.Next(instance, c.now())
}

// Receive is the client transport receiver.
func (c *rtClient) Receive(_ types.NodeID, msg types.Message) {
	inf, ok := msg.(*types.Inform)
	if !ok {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	set := c.informs[inf.BatchID]
	if set == nil {
		set = make(map[types.NodeID]bool, c.f+1)
		c.informs[inf.BatchID] = set
	}
	if set[inf.Replica] {
		return
	}
	set[inf.Replica] = true
	if len(set) != c.f+1 {
		return
	}
	delete(c.informs, inf.BatchID)
	now := c.now()
	meta, ok := c.src.Release(inf.BatchID, now)
	if !ok {
		return
	}
	c.doneAt = append(c.doneAt, now)
	c.lat = append(c.lat, now-meta.Submitted)
	c.txns = append(c.txns, meta.Txns)
}

// RunRuntime executes one real-substrate experiment point and returns its
// measurements, including the TCP transport's saturation counters
// (Result.Net*) so sheds and drops during a saturated run are observable
// instead of silent.
func RunRuntime(o RuntimeOptions) (Result, error) {
	if o.N == 0 {
		o.N = 4
	}
	if o.Instances == 0 {
		o.Instances = o.N
	}
	// Adaptive default: one worker per instance, bounded by the host's
	// cores — extra shard goroutines on a smaller host only add scheduler
	// pressure (m=8 on a 1-core host fell from 16.7 ktxn/s with 1 worker to
	// 12.5 with 8).
	o.InstanceWorkers = runtime.AutoWorkers(o.InstanceWorkers, o.Instances)
	if o.BatchSize == 0 {
		o.BatchSize = 10
	}
	if o.Outstanding == 0 {
		o.Outstanding = 8
	}
	if o.Warmup == 0 {
		o.Warmup = 2 * time.Second
	}
	if o.Measure == 0 {
		o.Measure = 4 * time.Second
	}
	n, f, m := o.N, (o.N-1)/3, o.Instances

	ids := make([]types.NodeID, 0, n+1)
	for i := 0; i < n; i++ {
		ids = append(ids, types.NodeID(i))
	}
	ids = append(ids, types.ClientIDBase)
	ring := crypto.NewKeyring([]byte("bench-instance-parallel"), ids)

	trs := make([]*transport.TCP, n)
	addrs := make(map[types.NodeID]string, n)
	for i := 0; i < n; i++ {
		prov, err := ring.Provider(types.NodeID(i))
		if err != nil {
			return Result{}, err
		}
		tr := transport.New(transport.Config{ID: types.NodeID(i), Listen: "127.0.0.1:0", Crypto: prov})
		if err := tr.Start(); err != nil {
			return Result{}, err
		}
		trs[i] = tr
		addrs[types.NodeID(i)] = tr.Addr()
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	for i := 0; i < n; i++ {
		if err := trs[i].DialPeers(addrs); err != nil {
			return Result{}, err
		}
	}

	wl := loadgen.DefaultWorkload(o.BatchSize)
	wl.Records = 10000
	srcStreams, credits := m, o.Outstanding
	if o.Dissem {
		// One lane per origin replica, sharing the closed-loop credits.
		srcStreams, credits = n, max(1, o.Outstanding/n)
	}
	client := &rtClient{
		src:     loadgen.NewSource(srcStreams, credits, wl),
		f:       f,
		start:   time.Now(),
		informs: make(map[types.Digest]map[types.NodeID]bool),
	}

	nodes := make([]*runtime.Node, n)
	for i := 0; i < n; i++ {
		prov, err := ring.Provider(types.NodeID(i))
		if err != nil {
			return Result{}, err
		}
		exec := runtime.NewReplicaExecutor(types.NodeID(i), ycsb.NewStore(10000, 16), ledger.New(), trs[i], types.ClientIDBase)
		node := runtime.NewNode(runtime.NodeConfig{
			ID: types.NodeID(i), N: n, F: f,
			Transport: trs[i], Crypto: prov, Source: client, Executor: exec,
			PreVerified: true,
			Workers:     o.InstanceWorkers,
		})
		cfg := core.DefaultConfig(n, m)
		cfg.InitialRecordingTimeout = 150 * time.Millisecond
		cfg.InitialCertifyTimeout = 150 * time.Millisecond
		cfg.MinTimeout = 10 * time.Millisecond
		if o.Dissem {
			cfg.Dissem = dissem.New(dissem.Config{N: n, F: f, CodeK: o.DissemCode})
		}
		rep := core.New(node, cfg)
		node.SetProtocol(rep)
		trs[i].SetIngress(rep, node.Verifier())
		nodes[i] = node
	}

	cprov, err := ring.Provider(types.ClientIDBase)
	if err != nil {
		return Result{}, err
	}
	ctr := transport.New(transport.Config{ID: types.ClientIDBase, Peers: addrs, Crypto: cprov})
	ctr.Register(types.ClientIDBase, client.Receive)
	if err := ctr.Start(); err != nil {
		return Result{}, err
	}
	defer ctr.Close()

	for _, nd := range nodes {
		nd.Start()
	}
	time.Sleep(o.Warmup + o.Measure)
	for _, nd := range nodes {
		nd.Stop()
	}

	res := Result{Options: Options{
		Protocol: SpotLess, N: n, Instances: m, InstanceWorkers: o.InstanceWorkers,
		BatchSize: o.BatchSize, Outstanding: o.Outstanding, Dissem: o.Dissem,
		DissemCode: o.DissemCode,
		Warmup:     o.Warmup, Measure: o.Measure,
	}}
	client.mu.Lock()
	var lats []time.Duration
	for i, at := range client.doneAt {
		if at < o.Warmup || at >= o.Warmup+o.Measure {
			continue
		}
		res.Batches++
		res.Throughput += float64(client.txns[i])
		lats = append(lats, client.lat[i])
	}
	client.mu.Unlock()
	res.Throughput /= o.Measure.Seconds()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum time.Duration
		for _, l := range lats {
			sum += l
		}
		res.AvgLatency = sum / time.Duration(len(lats))
		res.P50Latency = lats[len(lats)/2]
		res.P99Latency = lats[(len(lats)*99)/100]
	}
	for _, tr := range trs {
		st := tr.Stats()
		res.NetEncodes += st.Encodes
		res.NetEncodeFailures += st.EncodeFailures
		res.NetQueueSheds += st.QueueSheds
		res.NetMACRejections += st.MACRejections
		res.NetDecodeFailures += st.DecodeFailures
		res.NetIngressDrops += st.IngressDrops
		res.NetBytesOut += st.BytesOut
		res.NetBytesIn += st.BytesIn
	}
	return res, nil
}
