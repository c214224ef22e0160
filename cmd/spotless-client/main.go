// Command spotless-client drives a spotless-replica cluster: it submits
// YCSB batches, collects f+1 matching Informs per batch (§5), retries
// unanswered requests against the next replica with a doubled timeout, and
// reports throughput and latency.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"spotless/internal/crypto"
	"spotless/internal/runtime"
	"spotless/internal/transport"
	"spotless/internal/types"
	"spotless/internal/ycsb"
)

// pending is the retransmit bookkeeping of one unanswered batch; completion
// (f+1 matching Informs) is runtime.Client's.
type pending struct {
	batch     *types.Batch
	submitted time.Time
	replica   int
	timeout   time.Duration
}

func main() {
	var (
		n         = flag.Int("n", 4, "number of replicas")
		peersFlag = flag.String("peers", "", "comma-separated id=host:port for all replicas")
		secret    = flag.String("secret", "spotless-demo", "cluster secret")
		batches   = flag.Int("batches", 100, "total batches to complete")
		batchSize = flag.Int("batch", 100, "transactions per batch")
		inflight  = flag.Int("inflight", 16, "outstanding batches")
		timeout   = flag.Duration("timeout", 2*time.Second, "initial client timer t_C")
	)
	flag.Parse()

	peers, err := runtime.ParsePeers(*peersFlag, *n)
	if err != nil {
		log.Fatal(err)
	}
	f := (*n - 1) / 3

	ring := crypto.NewClusterKeyring([]byte(*secret), *n)
	prov, err := ring.Provider(types.ClientIDBase)
	if err != nil {
		log.Fatal(err)
	}

	var (
		mu        sync.Mutex
		inFlight  = map[types.Digest]*pending{}
		latencies []time.Duration
		doneCh    = make(chan struct{}, 1)
	)

	client := runtime.NewClient(f, func(id types.Digest) {
		mu.Lock()
		defer mu.Unlock()
		p := inFlight[id]
		if p == nil {
			return
		}
		delete(inFlight, id)
		latencies = append(latencies, time.Since(p.submitted))
		select {
		case doneCh <- struct{}{}:
		default:
		}
	})
	tr := transport.New(transport.Config{ID: types.ClientIDBase, Peers: peers, Crypto: prov})
	tr.Register(types.ClientIDBase, client.Receive)
	if err := tr.Start(); err != nil {
		log.Fatal(err)
	}
	defer tr.Close()

	wl := ycsb.NewWorkload(time.Now().UnixNano(), types.ClientIDBase, 100000, 33)
	submit := func(p *pending) {
		// §5: send to one replica; rotation guarantees some non-faulty
		// primary eventually proposes it.
		to := types.NodeID(p.replica % *n)
		tr.Send(types.ClientIDBase, to, &types.Request{Batch: p.batch})
	}
	newBatch := func() {
		b := wl.NextBatch(*batchSize)
		p := &pending{batch: b, submitted: time.Now(), timeout: *timeout}
		mu.Lock()
		inFlight[b.ID] = p
		mu.Unlock()
		submit(p)
	}

	start := time.Now()
	issued := 0
	for ; issued < *inflight && issued < *batches; issued++ {
		newBatch()
	}
	retry := time.NewTicker(100 * time.Millisecond)
	defer retry.Stop()
	for {
		mu.Lock()
		doneCount := len(latencies)
		mu.Unlock()
		if doneCount >= *batches {
			break
		}
		select {
		case <-doneCh:
			if issued < *batches {
				newBatch()
				issued++
			}
		case <-retry.C:
			// Client timer t_C: resend to the next replica with doubled
			// timeout (§5).
			mu.Lock()
			for _, p := range inFlight {
				if time.Since(p.submitted) > p.timeout {
					p.replica++
					p.timeout *= 2
					submit(p)
				}
			}
			mu.Unlock()
		}
	}
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	txns := *batches * *batchSize
	fmt.Printf("completed %d batches (%d txns) in %s\n", *batches, txns, elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f txn/s\n", float64(txns)/elapsed.Seconds())
	if len(latencies) > 0 {
		fmt.Printf("latency avg=%s p50=%s p99=%s\n",
			(sum / time.Duration(len(latencies))).Round(time.Microsecond),
			latencies[len(latencies)/2].Round(time.Microsecond),
			latencies[len(latencies)*99/100].Round(time.Microsecond))
	}
}
