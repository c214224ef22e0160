// Command spotless-replica runs one SpotLess replica over TCP — the
// multi-process deployment path ("local processes" evaluation). Replicas
// accept client Requests, assign them to instances by digest (§5), execute
// committed batches against a YCSB table, append to the blockchain ledger,
// and Inform clients.
//
// Example 4-replica cluster on one machine:
//
//	for i in 0 1 2 3; do
//	  spotless-replica -id $i -n 4 -instances 4 \
//	    -peers 0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003 &
//	done
//	spotless-client -n 4 -peers ... -batches 100
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"spotless/internal/core"
	"spotless/internal/crypto"
	"spotless/internal/dissem"
	"spotless/internal/ledger"
	"spotless/internal/metrics"
	"spotless/internal/runtime"
	"spotless/internal/transport"
	"spotless/internal/types"
	"spotless/internal/wal"
	"spotless/internal/ycsb"
)

// requestQueue assigns incoming client batches to instances by digest
// (§5: instance i proposes transactions with digest d ≡ i mod m). Under
// digest ordering (-dissem) the sharding changes: every batch this replica
// receives goes on its own dissemination lane — the dissemination layer
// pulls that lane, certifies availability, and only then do instances pick
// the digest up for proposing.
type requestQueue struct {
	mu     sync.Mutex
	m      int
	lane   int32 // ≥ 0: dissemination mode, all batches on this lane
	queues [][]*types.Batch
}

func newRequestQueue(m int, lane int32) *requestQueue {
	return &requestQueue{m: m, lane: lane, queues: make([][]*types.Batch, m)}
}

func (q *requestQueue) Add(b *types.Batch) {
	if b == nil {
		return
	}
	inst := q.lane
	if inst < 0 {
		inst = int32(b.ID[0]) % int32(q.m)
	}
	q.mu.Lock()
	q.queues[inst] = append(q.queues[inst], b)
	q.mu.Unlock()
}

func (q *requestQueue) Next(instance int32, now time.Duration) *types.Batch {
	q.mu.Lock()
	defer q.mu.Unlock()
	if int(instance) >= q.m || len(q.queues[instance]) == 0 {
		return nil
	}
	b := q.queues[instance][0]
	q.queues[instance] = q.queues[instance][1:]
	return b
}

func main() {
	var (
		id        = flag.Int("id", 0, "replica identifier (0..n-1)")
		n         = flag.Int("n", 4, "number of replicas")
		instances = flag.Int("instances", 0, "concurrent instances (default n)")
		peersFlag = flag.String("peers", "", "comma-separated id=host:port for all replicas")
		secret    = flag.String("secret", "spotless-demo", "cluster secret (deterministic PKI)")
		records   = flag.Uint64("records", 100000, "YCSB table size")
		timeout   = flag.Duration("timeout", 150*time.Millisecond, "initial view timeout")
		stats     = flag.Duration("stats", 5*time.Second, "stats reporting interval")
		ckptEvery = flag.Int("checkpoint-interval", 128, "checkpoint/GC/state-transfer interval in delivered batches (0 disables)")
		idleWait  = flag.Duration("idle-backoff", 25*time.Millisecond, "pace view entry when no client batches are pending (0 disables; keep below -timeout)")
		instWkrs  = flag.Int("instance-workers", 0, "event-loop goroutines hosting the m consensus instances (plus one ordering stage); 0 sizes adaptively to min(m, GOMAXPROCS), 1 keeps the classic single loop")
		useDissem = flag.Bool("dissem", false, "digest ordering: disseminate client batches with availability certificates, consensus orders digests only")
		dissemK   = flag.Int("dissem-code", 0, "erasure-coded dissemination: split each batch into k data chunks (plus n-1-k parity), one chunk per peer — origin egress drops to ~(n-1)/k of the payload; 0 keeps the full push; requires -dissem; clamped to n-2f")
		pacemaker = flag.String("pacemaker", "", "view-synchronizer arm: spotless (adaptive, default), relay (linear escalation), doubling (exponential backoff)")
		metrAddr  = flag.String("metrics-addr", "", "serve the plain-text /metrics endpoint on this address (e.g. 127.0.0.1:9090; empty disables)")
		dataDir   = flag.String("data-dir", "", "durable WAL-backed ledger directory: appends and checkpoint manifests persist here, and a restart (even kill -9) replays the chain and resumes from the stable checkpoint (empty keeps the ledger in memory)")
		fsyncPol  = flag.String("fsync", "percommit", "WAL durability policy: percommit (fsync every append), batched (group fsyncs), off (page cache only)")
	)
	flag.Parse()
	pm, err := core.PacemakerByName(*pacemaker)
	if err != nil {
		log.Fatalf("spotless-replica: %v", err)
	}

	peers, err := parsePeers(*peersFlag)
	if err != nil {
		log.Fatalf("spotless-replica: %v", err)
	}
	if len(peers) != *n {
		log.Fatalf("spotless-replica: -peers lists %d replicas, -n is %d", len(peers), *n)
	}
	m := *instances
	if m == 0 {
		m = *n
	}
	self := types.NodeID(*id)
	listen, ok := peers[self]
	if !ok {
		log.Fatalf("spotless-replica: own id %d missing from -peers", *id)
	}

	ids := make([]types.NodeID, 0, *n+1)
	for i := 0; i < *n; i++ {
		ids = append(ids, types.NodeID(i))
	}
	ids = append(ids, types.ClientIDBase)
	ring := crypto.NewKeyring([]byte(*secret), ids)
	prov, err := ring.Provider(self)
	if err != nil {
		log.Fatal(err)
	}

	tr := transport.New(transport.Config{ID: self, Listen: listen, Peers: peers, Crypto: prov})
	var queue *requestQueue
	if *useDissem {
		// One lane per origin replica; this replica only fills (and pulls)
		// its own.
		queue = newRequestQueue(*n, int32(*id))
	} else {
		queue = newRequestQueue(m, -1)
	}
	store := ycsb.NewStore(*records, 64)
	lg := ledger.New()
	var durable *wal.Store
	var resume *core.ResumeState
	var snapData []byte
	if *dataDir != "" {
		pol, err := wal.ParseFsyncPolicy(*fsyncPol)
		if err != nil {
			log.Fatalf("spotless-replica: %v", err)
		}
		lg, durable, resume, snapData, err = runtime.OpenDurable(*dataDir, wal.Config{Fsync: pol, Logf: log.Printf})
		if err != nil {
			log.Fatalf("spotless-replica: open %s: %v", *dataDir, err)
		}
		if h, _ := lg.Head(); h > 0 {
			log.Printf("wal: replayed chain to height %d from %s", h, *dataDir)
		}
	}
	exec := runtime.NewReplicaExecutor(self, store, lg, tr, types.ClientIDBase)
	if durable != nil {
		exec.BindDurable(durable)
	}

	node := runtime.NewNode(runtime.NodeConfig{
		ID: self, N: *n, F: (*n - 1) / 3,
		Transport: tr, Crypto: prov, Source: queue,
		Executor: exec,
		// The transport screens inbound signatures on its reader
		// goroutines + the shared pool (SetIngress below); the node must
		// not verify a second time.
		PreVerified: true,
		// Instance-parallel core: shard the m instances over this many
		// event-loop goroutines behind the serialized ordering stage.
		Workers: runtime.AutoWorkers(*instWkrs, m),
	})
	// Client Requests arrive through the same transport; intercept them
	// before protocol dispatch. A retransmitted request whose batch already
	// executed is answered from the reply cache (§5): the delivery layer
	// deduplicates re-proposals, so it would never Inform again.
	tr.Register(self, func(from types.NodeID, msg types.Message) {
		if req, ok := msg.(*types.Request); ok {
			if req.Batch != nil {
				if results, done := exec.Reply(req.Batch.ID); done {
					tr.Send(self, from, &types.Inform{Replica: self, BatchID: req.Batch.ID, Results: results})
					return
				}
			}
			queue.Add(req.Batch)
			return
		}
		node.Inject(from, msg)
	})

	cfg := core.DefaultConfig(*n, m)
	cfg.InitialRecordingTimeout = *timeout
	cfg.InitialCertifyTimeout = *timeout
	cfg.MinTimeout = *timeout / 8
	// Idle pacing (ROADMAP PR 2 discovery): without it an idle cluster burns
	// thousands of no-op views per second; with it, view entry waits up to
	// the backoff for a client batch before proposing the no-op filler.
	cfg.IdleBackoff = *idleWait
	cfg.Pacemaker = pm
	if *ckptEvery > 0 {
		// Checkpoint + GC + state transfer: bounds memory in long runs and
		// lets a restarted replica rejoin from the stable checkpoint (the
		// operator kill-and-rejoin path; see README).
		cfg.CheckpointInterval = *ckptEvery
		cfg.Host = exec
	}
	if *useDissem {
		cfg.Dissem = dissem.New(dissem.Config{N: *n, F: (*n - 1) / 3, CodeK: *dissemK})
	} else if *dissemK > 0 {
		log.Fatalf("spotless-replica: -dissem-code requires -dissem")
	}
	if err := runtime.ApplyResume(resume, snapData, &cfg, prov, exec); err != nil {
		log.Printf("wal: resume state rejected (%v); rejoining over the network", err)
	} else if cfg.Resume != nil {
		// Distinguish the restored-table restart from the forward-replay
		// fallback: the latter serves initial values for cold keys until
		// state transfer or fresh writes cover them, and an operator chasing
		// stale reads needs to see which of the two happened.
		if cfg.Resume.SnapshotHeight != 0 {
			log.Printf("wal: resuming from stable checkpoint at height %d (execution snapshot restored, table attested)",
				cfg.Resume.Cert.Height)
		} else {
			log.Printf("wal: resuming from stable checkpoint at height %d (NO execution snapshot — cold keys serve initial values until overwritten)",
				cfg.Resume.Cert.Height)
		}
	}
	rep := core.New(node, cfg)
	node.SetProtocol(rep)
	// Verification pipeline: MAC checks on the transport readers, declared
	// signature checks on the node's worker pool, before the event loop.
	tr.SetIngress(rep, node.Verifier())

	if *metrAddr != "" {
		// The source re-resolves through closures so the endpoint stays
		// correct if the consensus stack is ever rebuilt in-process.
		src := metrics.Source{
			Replica:   func() *core.Replica { return rep },
			Transport: func() *transport.TCP { return tr },
		}
		if layer := cfg.Dissem; layer != nil {
			src.Dissem = func() *dissem.Layer { return layer }
		}
		if durable != nil {
			src.WAL = func() *wal.Store { return durable }
		}
		ln, err := metrics.Serve(*metrAddr, src)
		if err != nil {
			log.Fatalf("spotless-replica: metrics listener: %v", err)
		}
		defer ln.Close()
		log.Printf("metrics on http://%s/metrics", ln.Addr())
	}

	if err := tr.Start(); err != nil {
		log.Fatal(err)
	}
	node.Start()
	log.Printf("spotless-replica %d up: n=%d m=%d workers=%d dissem=%v listen=%s",
		*id, *n, m, runtime.AutoWorkers(*instWkrs, m), *useDissem, listen)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	tick := time.NewTicker(*stats)
	defer tick.Stop()
	var lastApplied uint64
	for {
		select {
		case <-tick.C:
			applied := store.Applied()
			rate := float64(applied-lastApplied) / stats.Seconds()
			lastApplied = applied
			log.Printf("executed=%d (%.0f txn/s) ledger-height=%d", applied, rate, lg.Height())
		case <-stop:
			node.Stop()
			tr.Close()
			if durable != nil {
				if err := durable.Close(); err != nil {
					log.Printf("wal close FAILED: %v", err)
				}
			}
			if err := lg.Verify(); err != nil {
				log.Printf("ledger verification FAILED: %v", err)
				os.Exit(1)
			}
			if serr := lg.StoreErr(); serr != nil {
				log.Printf("ledger persistence degraded: %v", serr)
			}
			fmt.Printf("replica %d: clean shutdown, ledger verified at height %d\n", *id, lg.Height())
			return
		}
	}
}

func parsePeers(s string) (map[types.NodeID]string, error) {
	peers := make(map[types.NodeID]string)
	if s == "" {
		return nil, fmt.Errorf("missing -peers")
	}
	for _, part := range splitComma(s) {
		var id int
		var addr string
		if _, err := fmt.Sscanf(part, "%d=%s", &id, &addr); err != nil {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		peers[types.NodeID(id)] = addr
	}
	return peers, nil
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
