package runtime

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"spotless/internal/core"
	"spotless/internal/crypto"
	"spotless/internal/ledger"
	"spotless/internal/protocol"
	"spotless/internal/types"
	"spotless/internal/wal"
	"spotless/internal/ycsb"
)

// ReplicaSpec describes one replica for Assemble, which fills in
// NodeConfig.Executor and PreVerified and core.Config.Host and Resume.
type ReplicaSpec struct {
	// Node is the replica's identity, transport, crypto and dispatch. A nil
	// Source installs the client-request intake.
	Node      NodeConfig
	Consensus core.Config
	// WAL configures the store under DataDir; a nil Logf is silent.
	WAL wal.Config
	// DataDir is the WAL directory; "" keeps the ledger in memory.
	DataDir string
	Records uint64 // YCSB table size
	// Tune adjusts the consensus configuration after Host is set and
	// before the persisted checkpoint is verified against it.
	Tune func(cfg *core.Config)
}

// Assembled is one replica built by Assemble. Start it with Node.Start.
type Assembled struct {
	Node *Node
	Core *core.Replica
	Exec *ReplicaExecutor
	WAL  *wal.Store // nil when memory-only
}

// Stop halts the replica and closes its WAL cleanly (final sync).
func (a *Assembled) Stop() error {
	a.Node.Stop()
	if a.WAL != nil {
		return a.WAL.Close()
	}
	return nil
}

// Kill halts the replica and abandons its WAL without a final sync (the
// kill-9 model).
func (a *Assembled) Kill() { a.Node.Stop() }

// Assemble builds one runtime-hosted replica: OpenDurable, the executor
// bound to the WAL, the node, Host (when checkpointing is on), Tune,
// ApplyResume, the core replica, and the transport's ingress hook, in that
// order. Signatures are screened on the transport exactly when it has
// SetIngress. A nil Node.Source installs the request intake: client
// Requests are answered from the reply cache once executed (§5: delivery
// deduplicates re-proposals, so it would never Inform again) and otherwise
// queue by digest on instance d mod m, or on the replica's own origin lane
// when Consensus.Dissem is set. An id outside [0, n) or an instance count
// outside [1, n] (§4.1) is an error.
func Assemble(spec ReplicaSpec) (*Assembled, error) {
	nc, cfg := spec.Node, spec.Consensus
	if nc.ID < 0 || int(nc.ID) >= nc.N {
		return nil, fmt.Errorf("runtime: replica id %d outside [0,%d)", nc.ID, nc.N)
	}
	if cfg.Instances < 1 || cfg.Instances > nc.N {
		return nil, fmt.Errorf("runtime: %d instances, need 1 ≤ m ≤ n = %d", cfg.Instances, nc.N)
	}
	logf := spec.WAL.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	a := &Assembled{}
	lg := ledger.New()
	var res *core.ResumeState
	var snapData []byte
	if spec.DataDir != "" {
		var err error
		lg, a.WAL, res, snapData, err = OpenDurable(spec.DataDir, spec.WAL)
		if err != nil {
			return nil, fmt.Errorf("runtime: open %s: %w", spec.DataDir, err)
		}
		if h, _ := lg.Head(); h > 0 {
			logf("wal: replayed chain to height %d from %s", h, spec.DataDir)
		}
	}
	a.Exec = NewReplicaExecutor(nc.ID, ycsb.NewStore(spec.Records, 64), lg, nc.Transport, types.ClientIDBase)
	if a.WAL != nil {
		a.Exec.BindDurable(a.WAL)
	}

	// transport.TCP screens signatures on its reader goroutines.
	screen, screened := nc.Transport.(interface {
		SetIngress(protocol.IngressVerifier, crypto.Verifier)
	})
	nc.Executor, nc.PreVerified = a.Exec, screened
	var intake *requestQueue
	if nc.Source == nil {
		intake = &requestQueue{}
		nc.Source = intake
	}
	a.Node = NewNode(nc)

	if cfg.CheckpointInterval > 0 {
		cfg.Host = a.Exec
	}
	if spec.Tune != nil {
		spec.Tune(&cfg)
	}
	if err := ApplyResume(res, snapData, &cfg, nc.Crypto, a.Exec); err != nil {
		logf("wal: resume state rejected (%v); rejoining over the network", err)
	} else if r := cfg.Resume; r != nil {
		// The forward-replay fallback serves initial values for cold keys
		// until state transfer or fresh writes cover them; say which it was.
		table := "execution snapshot restored, table attested"
		if r.SnapshotHeight == 0 {
			table = "NO execution snapshot — cold keys serve initial values until overwritten"
		}
		logf("wal: resuming from stable checkpoint at height %d (%s)", r.Cert.Height, table)
	}
	a.Core = core.New(a.Node, cfg)
	a.Node.SetProtocol(a.Core)
	if screened {
		screen.SetIngress(a.Core, a.Node.Verifier())
	}
	if intake != nil {
		intake.shape(nc.N, cfg.Instances, nc.ID, cfg.Dissem != nil)
		a.serveRequests(nc.Transport, intake)
	}
	return a, nil
}

// serveRequests intercepts client Requests before protocol dispatch.
func (a *Assembled) serveRequests(tr Transport, q *requestQueue) {
	self := a.Node.ID()
	tr.Register(self, func(from types.NodeID, msg types.Message) {
		req, ok := msg.(*types.Request)
		if !ok {
			a.Node.receive(from, msg)
			return
		}
		if req.Batch == nil {
			return
		}
		if results, done := a.Exec.Reply(req.Batch.ID); done {
			tr.Send(self, from, &types.Inform{Replica: self, BatchID: req.Batch.ID, Results: results})
			return
		}
		q.Add(req.Batch)
	})
}

// requestQueue is the request intake's batch source.
type requestQueue struct {
	mu     sync.Mutex
	lane   int32 // ≥ 0: digest ordering, every batch on this origin lane
	queues [][]*types.Batch
}

// shape sizes the queue before the node starts: one lane per instance, or
// under digest ordering one per origin replica, this replica filling its own.
func (q *requestQueue) shape(n, m int, self types.NodeID, dissem bool) {
	q.lane = -1
	if dissem {
		q.lane, m = int32(self), n
	}
	q.queues = make([][]*types.Batch, m)
}

func (q *requestQueue) Add(b *types.Batch) {
	inst := q.lane
	if inst < 0 {
		inst = int32(b.ID[0]) % int32(len(q.queues))
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.queues[inst] = append(q.queues[inst], b)
}

// Next implements BatchSource.
func (q *requestQueue) Next(instance int32, _ time.Duration) *types.Batch {
	q.mu.Lock()
	defer q.mu.Unlock()
	if int(instance) >= len(q.queues) || len(q.queues[instance]) == 0 {
		return nil
	}
	b := q.queues[instance][0]
	q.queues[instance] = q.queues[instance][1:]
	return b
}

// ParsePeers parses a comma-separated "id=host:port" list naming every
// replica of an n-replica cluster exactly once: ids must lie in [0, n), none
// may repeat, and there must be n of them.
func ParsePeers(s string, n int) (map[types.NodeID]string, error) {
	peers := make(map[types.NodeID]string, n)
	for _, part := range strings.Split(s, ",") {
		if part == "" {
			continue
		}
		ids, addr, ok := strings.Cut(part, "=")
		id, err := strconv.Atoi(ids)
		if !ok || err != nil || addr == "" {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		if id < 0 || id >= n {
			return nil, fmt.Errorf("peer id %d outside [0,%d)", id, n)
		}
		if _, dup := peers[types.NodeID(id)]; dup {
			return nil, fmt.Errorf("peer id %d listed twice", id)
		}
		peers[types.NodeID(id)] = addr
	}
	if len(peers) != n {
		return nil, fmt.Errorf("-peers lists %d replicas, -n is %d", len(peers), n)
	}
	return peers, nil
}
