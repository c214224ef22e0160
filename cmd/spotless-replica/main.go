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
	"syscall"
	"time"

	"spotless/internal/core"
	"spotless/internal/crypto"
	"spotless/internal/dissem"
	"spotless/internal/metrics"
	"spotless/internal/runtime"
	"spotless/internal/transport"
	"spotless/internal/types"
	"spotless/internal/wal"
)

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

	peers, err := runtime.ParsePeers(*peersFlag, *n)
	if err != nil {
		log.Fatalf("spotless-replica: %v", err)
	}
	m := *instances
	if m == 0 {
		m = *n
	}
	self := types.NodeID(*id)
	ring := crypto.NewClusterKeyring([]byte(*secret), *n)
	prov, err := ring.Provider(self)
	if err != nil {
		log.Fatal(err)
	}
	tr := transport.New(transport.Config{ID: self, Listen: peers[self], Peers: peers, Crypto: prov})

	cfg := core.DefaultConfig(*n, m)
	cfg.InitialRecordingTimeout = *timeout
	cfg.InitialCertifyTimeout = *timeout
	cfg.MinTimeout = *timeout / 8
	// Idle pacing (ROADMAP PR 2 discovery): without it an idle cluster burns
	// thousands of no-op views per second; with it, view entry waits up to
	// the backoff for a client batch before proposing the no-op filler.
	cfg.IdleBackoff = *idleWait
	cfg.Pacemaker = pm
	// Checkpoint + GC + state transfer bound memory in long runs and let a
	// restarted replica rejoin from the stable checkpoint (0 disables).
	cfg.CheckpointInterval = max(*ckptEvery, 0)
	if *useDissem {
		cfg.Dissem = dissem.New(dissem.Config{N: *n, F: (*n - 1) / 3, CodeK: *dissemK})
	} else if *dissemK > 0 {
		log.Fatalf("spotless-replica: -dissem-code requires -dissem")
	}
	workers := runtime.AutoWorkers(*instWkrs, m)
	spec := runtime.ReplicaSpec{
		// A nil Source: client Requests arrive through the request intake.
		Node:      runtime.NodeConfig{ID: self, N: *n, F: (*n - 1) / 3, Transport: tr, Crypto: prov, Workers: workers},
		Consensus: cfg,
		WAL:       wal.Config{Logf: log.Printf},
		DataDir:   *dataDir,
		Records:   *records,
	}
	if *dataDir != "" {
		if spec.WAL.Fsync, err = wal.ParseFsyncPolicy(*fsyncPol); err != nil {
			log.Fatalf("spotless-replica: %v", err)
		}
	}
	rep, err := runtime.Assemble(spec)
	if err != nil {
		log.Fatalf("spotless-replica: %v", err)
	}
	store, lg := rep.Exec.Store(), rep.Exec.Ledger()

	if *metrAddr != "" {
		// The source re-resolves through closures so the endpoint stays
		// correct if the consensus stack is ever rebuilt in-process.
		src := metrics.Source{
			Replica:   func() *core.Replica { return rep.Core },
			Transport: func() *transport.TCP { return tr },
		}
		if layer := cfg.Dissem; layer != nil {
			src.Dissem = func() *dissem.Layer { return layer }
		}
		if durable := rep.WAL; durable != nil {
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
	rep.Node.Start()
	log.Printf("spotless-replica %d up: n=%d m=%d workers=%d dissem=%v listen=%s",
		*id, *n, m, workers, *useDissem, peers[self])

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
			log.Printf("executed=%d (%.0f txn/s) ledger-height=%d dropped=%d bad-sigs=%d",
				applied, rate, lg.Height(), rep.Node.Dropped(), rep.Node.BadSigs())
		case <-stop:
			if err := rep.Stop(); err != nil {
				log.Printf("wal close FAILED: %v", err)
			}
			tr.Close()
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
