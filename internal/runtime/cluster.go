package runtime

import (
	"fmt"
	"path/filepath"
	stdruntime "runtime"
	"sync"
	"time"

	"spotless/internal/core"
	"spotless/internal/crypto"
	"spotless/internal/ledger"
	"spotless/internal/types"
	"spotless/internal/wal"
	"spotless/internal/ycsb"
)

// ReplicaExecutor wires the execution layer of one replica: sequential YCSB
// execution, ledger append, and the Inform reply to the client (§5, §6.1).
// All methods except the read-only accessors run on the node's event loop.
type ReplicaExecutor struct {
	id     types.NodeID
	store  *ycsb.Store
	ledger *ledger.Ledger
	trans  Transport
	client types.NodeID
	// delivered is the global delivery position (non-noop commits executed).
	// It trails the ledger head during post-install catch-up, when the
	// canonical blocks were already imported via state transfer (or replayed
	// from the WAL at restart) and the replayed executions must not append
	// duplicates.
	delivered uint64
	// durable is the WAL store mirroring the ledger; nil for memory-only
	// replicas. Checkpoint metadata persists through it so a restart resumes
	// from the stable cut instead of rejoining as an amnesiac.
	durable *wal.Store

	// pendingSnaps holds the table frozen at checkpoint cuts (StateDigest
	// time, when the table content is exactly the attested prefix) awaiting
	// stabilization; PersistCheckpoint promotes the winning cut to stable and
	// drops the rest. Bounded: cuts that never stabilize are evicted
	// oldest-first. All access is on the ordering stage, like every other
	// StateHost path.
	pendingSnaps map[uint64]*cutSnapshot
	// stable is the snapshot at the stable checkpoint (nil before the first
	// cut) — served inside StateChunk replies (memory-only replicas serve it
	// too) and persisted through the WAL on durable ones.
	stable *cutSnapshot

	// Reply cache (§5): clients retransmit unanswered requests, but a batch
	// that already executed is deduplicated at delivery and never executes
	// (or Informs) again — so replicas remember recent results and answer
	// retransmissions from the cache. Guarded for the transport readers
	// that consult it; bounded FIFO.
	replyMu    sync.Mutex
	replies    map[types.Digest]types.Digest
	replyOrder []types.Digest
}

// replyCacheSize bounds the retained per-batch results.
const replyCacheSize = 4096

func (e *ReplicaExecutor) recordReply(id, results types.Digest) {
	e.replyMu.Lock()
	defer e.replyMu.Unlock()
	if _, dup := e.replies[id]; dup {
		return
	}
	e.replies[id] = results
	e.replyOrder = append(e.replyOrder, id)
	if len(e.replyOrder) > replyCacheSize {
		delete(e.replies, e.replyOrder[0])
		e.replyOrder = e.replyOrder[1:]
	}
}

// Reply returns the cached execution result for an already-executed batch.
func (e *ReplicaExecutor) Reply(id types.Digest) (types.Digest, bool) {
	e.replyMu.Lock()
	defer e.replyMu.Unlock()
	r, ok := e.replies[id]
	return r, ok
}

// maxPendingSnaps bounds snapshots held for cuts that have not stabilized.
const maxPendingSnaps = 4

// cutSnapshot is the execution snapshot at one checkpoint cut. The table is
// held frozen and encoded at most once, when the bytes are first needed: the
// WAL write on a durable replica, or the first state-transfer serve. A
// memory-only replica that never serves a rejoiner never encodes.
type cutSnapshot struct {
	height   uint64
	execHash types.Digest
	table    *ycsb.Frozen // nil once encoded
	data     []byte       // the envelope, once encoded
}

// bytes returns the snapshot envelope, encoding it on first use.
func (c *cutSnapshot) bytes() []byte {
	if c.data == nil {
		c.data = c.table.Encode(c.height, c.execHash)
		c.table = nil
	}
	return c.data
}

// NewReplicaExecutor creates an executor for a replica.
func NewReplicaExecutor(id types.NodeID, store *ycsb.Store, lg *ledger.Ledger, trans Transport, client types.NodeID) *ReplicaExecutor {
	return &ReplicaExecutor{id: id, store: store, ledger: lg, trans: trans, client: client,
		replies: make(map[types.Digest]types.Digest), pendingSnaps: make(map[uint64]*cutSnapshot)}
}

// Execute implements Executor.
func (e *ReplicaExecutor) Execute(c types.Commit) {
	results := e.store.Apply(c.Batch)
	pos := e.delivered
	e.delivered++
	if pos >= e.ledger.Height() {
		e.ledger.Append(c, results)
	} else if blk, ok := e.ledger.Block(pos); !ok ||
		blk.Instance != c.Instance || blk.View != c.View || blk.Proposal != c.Proposal ||
		(c.Batch != nil && blk.BatchID != c.Batch.ID) || blk.Results != results {
		// Catch-up replay contradicts the imported record at this position.
		// The certificate attests only the chain-resume hash, not the
		// segment above it, so a Byzantine responder can fabricate a
		// self-consistent suffix — including one with forged result digests,
		// which would permanently diverge this replica's chain head and
		// split its future attestations from the quorum's. Consensus plus
		// local re-execution is the authority (execution digests cover
		// writes only, so the replayed digest is byte-identical to the
		// canonical one): discard the contradicted suffix and chain our own
		// execution.
		_ = e.ledger.Rollback(pos)
		e.ledger.Append(c, results)
	}
	// else: catch-up replay confirmed the imported block field by field
	// (instance, view, proposal, batch, and result digest as consensus and
	// re-execution decided); height and parent link are fixed by position,
	// so the retained record is byte-identical to what Append would chain.
	if c.Batch != nil && !c.Batch.NoOp {
		e.recordReply(c.Batch.ID, results)
		if e.trans != nil {
			e.trans.Send(e.id, e.client, &types.Inform{Replica: e.id, BatchID: c.Batch.ID, Results: results})
		}
	}
}

// Ledger exposes the replica's ledger.
func (e *ReplicaExecutor) Ledger() *ledger.Ledger { return e.ledger }

// BindDurable mirrors the ledger into a WAL store and routes checkpoint
// persistence to its manifest.
func (e *ReplicaExecutor) BindDurable(st *wal.Store) {
	e.durable = st
	e.ledger.Bind(st)
}

// Store exposes the replica's table.
func (e *ReplicaExecutor) Store() *ycsb.Store { return e.store }

// --- core.StateHost: checkpointing & state transfer over the ledger ---

// StateDigest implements core.StateHost: the chain hash at the checkpoint
// height, folding execution results into the attestation. Execute runs
// synchronously on the event loop, so the ledger head equals the delivered
// height when the checkpoint is cut — which is also why the execution
// snapshot is captured here, not at stabilization: at this instant the table
// is exactly the attested prefix, while by the time the certificate
// assembles the table has moved on. Capturing freezes the table (a copy of
// its slice headers); encoding waits until the bytes are needed.
func (e *ReplicaExecutor) StateDigest(height uint64, execHash types.Digest) types.Digest {
	if height == 0 {
		return types.Digest{}
	}
	if len(e.pendingSnaps) >= maxPendingSnaps {
		lowest := uint64(0)
		for h := range e.pendingSnaps {
			if lowest == 0 || h < lowest {
				lowest = h
			}
		}
		delete(e.pendingSnaps, lowest)
	}
	e.pendingSnaps[height] = &cutSnapshot{height: height, execHash: execHash, table: e.store.Freeze()}
	if b, ok := e.ledger.Block(height - 1); ok {
		return b.Hash
	}
	return types.Digest{}
}

// TruncateBelow implements core.StateHost: prune ledger blocks behind the
// stable checkpoint, keeping the chain-resume hash.
func (e *ReplicaExecutor) TruncateBelow(height uint64) {
	_ = e.ledger.Truncate(height)
}

// FetchBlocks implements core.StateHost, serving state-transfer chunks.
func (e *ReplicaExecutor) FetchBlocks(from uint64, max int) []types.BlockRecord {
	return e.ledger.Blocks(from, max)
}

// Head implements core.StateHost: the retained chain head sent with
// FetchState so a server can serve only the missing suffix.
func (e *ReplicaExecutor) Head() (uint64, types.Digest) { return e.ledger.Head() }

// BlockHash implements core.StateHost: the hash of the retained block at
// the given height, for verifying a requester's claimed head.
func (e *ReplicaExecutor) BlockHash(height uint64) (types.Digest, bool) {
	b, ok := e.ledger.Block(height)
	return b.Hash, ok
}

// PersistCheckpoint implements core.StateHost: record the stable
// certificate and its state-hash preimage in the WAL manifest so a restart
// resumes from this cut, then promote the execution snapshot captured at
// that cut and, on durable replicas, encode and persist it. Manifest
// strictly first: recovery must never find a snapshot the manifest cannot
// vouch for (the crash window leaves a stale or missing snapshot, which
// recovery treats as a forward-replay fallback). Memory-only replicas still
// promote the snapshot so they can serve it in state-transfer chunks.
func (e *ReplicaExecutor) PersistCheckpoint(cert types.CheckpointCert, execHash, resume types.Digest, anchors []types.Anchor) {
	h := cert.Height
	if snap, ok := e.pendingSnaps[h]; ok {
		e.stable = snap
	}
	for ph := range e.pendingSnaps {
		if ph <= h {
			delete(e.pendingSnaps, ph)
		}
	}
	if e.durable != nil {
		_ = e.durable.SetCheckpoint(cert, execHash, resume, anchors)
		if e.stable != nil && e.stable.height == h {
			_ = e.durable.SaveSnapshot(h, e.stable.bytes())
		}
	}
}

// StateSnapshot implements core.StateHost: the execution snapshot at the
// stable checkpoint, served inside StateChunk replies so a far-behind
// rejoiner installs the attested table instead of replaying from genesis.
func (e *ReplicaExecutor) StateSnapshot(height uint64) []byte {
	if e.stable != nil && e.stable.height == height {
		return e.stable.bytes()
	}
	return nil
}

// StableSnapshot returns the stable-checkpoint snapshot the executor
// retains and its anchor height (0, nil before the first cut). Harness
// accessor — call only while the replica's event loop is stopped.
func (e *ReplicaExecutor) StableSnapshot() (uint64, []byte) {
	if e.stable == nil {
		return 0, nil
	}
	return e.stable.height, e.stable.bytes()
}

// chainHashAt returns lg's chain hash at the given height: the hash the
// block at that height chains from (resume hash at the base, the previous
// block's hash above it). ok is false when the height is outside the
// retained chain.
func chainHashAt(lg *ledger.Ledger, height uint64) (types.Digest, bool) {
	if s := lg.Snapshot(); height == s.Height {
		return s.Resume, true
	}
	if b, ok := lg.Block(height - 1); ok {
		return b.Hash, true
	}
	return types.Digest{}, false
}

// extendChain appends transferred blocks that extend the retained head,
// skipping overlap with blocks already held, and stops quietly at the first
// record that does not link: everything above the certified cut is
// provisional either way, and the consensus replay arbitrates (Execute).
func (e *ReplicaExecutor) extendChain(blocks []types.BlockRecord) {
	for _, b := range blocks {
		head, _ := e.ledger.Head()
		if b.Height < head {
			continue
		}
		if e.ledger.AppendRecord(b) != nil {
			return
		}
	}
}

// InstallState implements core.StateHost: adopt a verified stable
// checkpoint at the certificate height. Three paths, cheapest first:
//
//   - keep-chain: the retained chain already covers the certified cut and
//     matches the attested resume hash (a WAL-restarted replica whose local
//     replay reached the new frontier). Nothing is re-fetched; the chain is
//     pruned to the cut and any transferred extension is grafted on.
//   - suffix: the transferred blocks link onto the retained head and carry
//     the chain to the certified cut, where the hash must equal the attested
//     resume — transitively certifying the local prefix they build on. A
//     cap-bounded chunk that falls short is banked (advancing the head the
//     next FetchState claims) but the install reports failure so delivery
//     does not advance past unattested state.
//   - full re-root: the seed path — the segment anchors at the attested
//     resume hash, the ledger is reset to the cut and the segment ingested.
//
// A local tail that contradicts the certificate is rolled back to the
// executed frontier, so the next fetch claims an honest head. The YCSB
// table rides in the chunk's Snapshot arm when the server retains one: it
// is decoded and bound to the certificate BEFORE any ledger mutation (a
// present-but-invalid snapshot aborts the whole install — unverified state
// is never served), and installed atomically with the checkpoint so cold
// keys read the attested values instead of initial payloads.
func (e *ReplicaExecutor) InstallState(chunk *types.StateChunk) error {
	height, resume, blocks := chunk.Cert.Height, chunk.LedgerResume, chunk.Blocks
	head, headHash := e.ledger.Head()

	// Verify the snapshot arm first: its embedded binding must name exactly
	// the certificate being installed. CheckpointStateHash already tied
	// (height, ExecHash) to the quorum's signatures upstream, so a snapshot
	// matching (height, ExecHash) is the attested table.
	var snap *ycsb.TableSnapshot
	if len(chunk.Snapshot) > 0 {
		s, err := ycsb.DecodeSnapshot(chunk.Snapshot)
		if err != nil {
			return fmt.Errorf("state chunk snapshot: %w", err)
		}
		if s.Height != height || s.ExecHash != chunk.ExecHash {
			return fmt.Errorf("state chunk snapshot bound to (%d, %x), certificate is (%d, %x)",
				s.Height, s.ExecHash[:4], height, chunk.ExecHash[:4])
		}
		snap = s
	}

	// Keep-chain: local chain covers the cut and vouches for the certificate.
	if head >= height {
		if have, ok := chainHashAt(e.ledger, height); ok && have == resume {
			e.extendChain(blocks)
			if err := e.ledger.Truncate(height); err != nil {
				return err
			}
			e.adoptSnapshot(chunk, snap)
			e.delivered = height
			return nil
		}
		// The provisional tail contradicts the certified cut. Drop it back
		// to the executed frontier — everything at or below e.delivered was
		// earned through consensus plus local execution — and re-evaluate
		// against the (now honest) head.
		_ = e.ledger.Rollback(e.delivered)
		head, headHash = e.ledger.Head()
	}

	// Suffix: blocks link onto the retained head and must carry the chain to
	// the certified cut.
	if head > 0 && head < height && len(blocks) > 0 &&
		blocks[0].Height == head && blocks[0].Prev == headHash {
		probe := ledger.NewAt(ledger.Snapshot{Height: head, Resume: headHash})
		for _, b := range blocks {
			if err := probe.AppendRecord(b); err != nil {
				return err
			}
		}
		if covered, _ := probe.Head(); covered >= height {
			if hh, ok := chainHashAt(probe, height); !ok || hh != resume {
				// The combined chain contradicts the certificate: the local
				// prefix the suffix builds on is not canonical. Discard the
				// unattested tail; the next fetch claims the executed
				// frontier and is answered from the stable cut instead.
				_ = e.ledger.Rollback(e.delivered)
				return ledger.ErrBrokenChain
			}
			for _, b := range blocks {
				if err := e.ledger.AppendRecord(b); err != nil {
					return err // unreachable: the segment was validated above
				}
			}
			if err := e.ledger.Truncate(height); err != nil {
				return err
			}
			e.adoptSnapshot(chunk, snap)
			e.delivered = height
			return nil
		}
		// Cap-bounded chunk short of the cut: bank the verified-linking
		// blocks so the next fetch resumes from a higher head, but report
		// failure — nothing attests them until a chunk reaches the cut.
		for _, b := range blocks {
			if err := e.ledger.AppendRecord(b); err != nil {
				return err
			}
		}
		return fmt.Errorf("ledger: state chunk ends at %d, certificate at %d", head+uint64(len(blocks)), height)
	}

	// Full re-root (the seed path).
	if len(blocks) > 0 {
		// Honest servers serve from their stable height, which equals the
		// certificate height; a segment starting anywhere else is forged.
		// Anchoring the first block at the attested resume hash is what
		// ties the (otherwise self-consistent) segment to the certificate.
		if blocks[0].Height != height {
			return ledger.ErrGap
		}
		if blocks[0].Prev != resume {
			return ledger.ErrBrokenChain // segment contradicts the attested resume hash
		}
		// Validate the whole segment before touching the live ledger, so a
		// tampered block mid-segment cannot leave a half-installed state.
		probe := ledger.NewAt(ledger.Snapshot{Height: height, Resume: resume})
		for _, b := range blocks {
			if err := probe.AppendRecord(b); err != nil {
				return err
			}
		}
	}
	e.ledger.Reset(ledger.Snapshot{Height: height, Resume: resume})
	for _, b := range blocks {
		if err := e.ledger.AppendRecord(b); err != nil {
			return err // unreachable: the segment was validated above
		}
	}
	// Delivery resumes at the checkpoint height; imported blocks above it
	// are provisional-canonical — kept unless the consensus replay
	// contradicts them (see Execute).
	e.adoptSnapshot(chunk, snap)
	e.delivered = height
	return nil
}

// adoptSnapshot installs a verified chunk snapshot into the table at the
// moment an install commits (every install path funnels through here before
// the delivery cursor jumps). With a snapshot, the table becomes the
// attested state at the cut and the replica can itself serve and persist it
// — the full checkpoint metadata is re-persisted alongside, so a crash
// right after the install restarts from the cut instead of rejoining as an
// amnesiac. Without one, the jump leaves cold keys at initial values until
// overwritten (the pre-snapshot semantics), which is counted as a restore
// fallback on durable replicas so operators can see it.
func (e *ReplicaExecutor) adoptSnapshot(chunk *types.StateChunk, snap *ycsb.TableSnapshot) {
	if snap == nil {
		if chunk.Cert.Height > e.delivered && e.durable != nil {
			e.durable.NoteRestoreFallback()
		}
		return
	}
	e.store.Restore(snap)
	e.stable = &cutSnapshot{height: chunk.Cert.Height, data: append([]byte(nil), chunk.Snapshot...)}
	if e.durable != nil {
		_ = e.durable.SetCheckpoint(chunk.Cert, chunk.ExecHash, chunk.LedgerResume, chunk.Anchors)
		_ = e.durable.SaveSnapshot(chunk.Cert.Height, e.stable.data)
		e.durable.NoteSnapshotRestored(len(chunk.Snapshot))
	}
}

// safeSource makes any BatchSource safe for concurrent nodes.
type safeSource struct {
	mu  sync.Mutex
	src BatchSource
}

// Next implements BatchSource.
func (s *safeSource) Next(instance int32, now time.Duration) *types.Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Next(instance, now)
}

// Client is the aggregate client of an in-process cluster: it submits
// batches through the shared source and completes them on f+1 matching
// Informs (§5).
type Client struct {
	mu        sync.Mutex
	f         int
	informs   map[types.Digest]map[types.NodeID]types.Digest
	completed map[types.Digest]bool
	onDone    func(id types.Digest)

	Completed uint64
}

// NewClient creates the collector; onDone (optional) fires per completed
// batch.
func NewClient(f int, onDone func(types.Digest)) *Client {
	return &Client{
		f:         f,
		informs:   make(map[types.Digest]map[types.NodeID]types.Digest),
		completed: make(map[types.Digest]bool),
		onDone:    onDone,
	}
}

// Receive ingests an Inform (wired as the client's transport receiver).
func (c *Client) Receive(from types.NodeID, msg types.Message) {
	inf, ok := msg.(*types.Inform)
	if !ok {
		return
	}
	c.mu.Lock()
	if c.completed[inf.BatchID] {
		c.mu.Unlock()
		return
	}
	set := c.informs[inf.BatchID]
	if set == nil {
		set = make(map[types.NodeID]types.Digest)
		c.informs[inf.BatchID] = set
	}
	set[inf.Replica] = inf.Results
	// f+1 identical results complete the request.
	count := 0
	for _, r := range set {
		if r == inf.Results {
			count++
		}
	}
	done := count >= c.f+1
	if done {
		c.completed[inf.BatchID] = true
		delete(c.informs, inf.BatchID)
		c.Completed++
	}
	onDone := c.onDone
	c.mu.Unlock()
	if done && onDone != nil {
		onDone(inf.BatchID)
	}
}

// CompletedCount returns the number of completed batches.
func (c *Client) CompletedCount() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Completed
}

// Cluster is an in-process SpotLess deployment with real cryptography,
// YCSB execution, and ledgers — the quickstart substrate.
type Cluster struct {
	N, F, M   int
	Transport *LocalTransport
	Nodes     []*Node
	Replicas  []*core.Replica
	Execs     []*ReplicaExecutor
	Stores    []*wal.Store // per-replica WAL store; nil entries when memory-only
	Client    *Client
	ClientID  types.NodeID

	cfg  ClusterConfig // retained for Restart
	ring *crypto.Keyring
	src  BatchSource
	reps []*Assembled
}

// ClusterConfig parameterizes NewCluster.
type ClusterConfig struct {
	N, Instances int
	Source       BatchSource // shared (wrapped in safeSource)
	Records      uint64      // YCSB table size (default 10k for fast startup)
	// CheckpointInterval is the checkpoint/GC/state-transfer interval in
	// delivered batches (core.Config.CheckpointInterval). 0 selects the
	// production default of 64; negative disables checkpointing.
	CheckpointInterval int
	// IdleBackoff paces no-op view entry when NextBatch is empty
	// (core.Config.IdleBackoff): idle clusters stop burning thousands of
	// no-op views per second, while loaded ones are unaffected. 0 keeps the
	// unpaced behaviour. Keep it below the 100 ms recording timeout.
	IdleBackoff time.Duration
	// InstanceWorkers > 1 shards each replica's m consensus instances over
	// that many event-loop goroutines behind a serialized ordering stage
	// (runtime.NodeConfig.Workers). 0 sizes adaptively to
	// min(m, GOMAXPROCS): sharding goroutines beyond the host's cores only
	// adds scheduler pressure (m=8 over TCP loopback on a 1-core host fell
	// from 16.7 ktxn/s with 1 worker to 12.5 with 8), and workers beyond m
	// idle. Negative (or 1) pins the single event loop explicitly.
	InstanceWorkers int
	// DataDir enables durable WAL-backed ledgers: replica i keeps its
	// segments and checkpoint manifest under DataDir/r<i>. Kill abandons the
	// store without a final sync (the kill-9 model) and Restart replays it
	// from disk, resuming from the persisted stable checkpoint. "" keeps
	// ledgers memory-only (the seed behaviour).
	DataDir string
	// Fsync selects the WAL durability policy (default per-commit).
	Fsync wal.FsyncPolicy
	// FSFor returns replica i's WAL filesystem; nil (or a nil result) uses
	// the OS filesystem. Tests inject wal.MemFS for deterministic power-cut
	// semantics (Crash drops unsynced bytes) — one shared MemFS, or one per
	// replica when a drill injects faults (FailSyncs, FlipBit, ...) into one
	// replica's disk without touching the others.
	FSFor func(i int) wal.FS
	// Tune adjusts replica i's consensus configuration just before
	// construction: a pacemaker arm, digest ordering (a fresh dissem.Layer
	// per replica; Source then carries one lane per replica id), or host
	// decorators.
	Tune   func(i int, cfg *core.Config)
	OnDone func(types.Digest)
}

// AutoWorkers resolves an instance-worker count: 0 sizes adaptively to
// min(m, GOMAXPROCS) — one event-loop lane per instance, never more than
// the host has cores for — anything explicit is clamped to ≥ 1.
func AutoWorkers(workers, m int) int {
	if workers == 0 {
		workers = m
		if p := stdruntime.GOMAXPROCS(0); p < workers {
			workers = p
		}
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// NewCluster builds and starts an n-replica SpotLess cluster in-process.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.N < 4 {
		return nil, fmt.Errorf("runtime: need n ≥ 4, got %d", cfg.N)
	}
	if cfg.Instances < 1 {
		cfg.Instances = 1
	}
	if cfg.Records == 0 {
		cfg.Records = 10000
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = 64
	}
	n, f := cfg.N, (cfg.N-1)/3
	clientID := types.ClientIDBase
	ring := crypto.NewClusterKeyring([]byte("spotless-cluster-secret"), n)

	trans := NewLocalTransport()
	cl := &Cluster{N: n, F: f, M: cfg.Instances, Transport: trans, ClientID: clientID,
		cfg: cfg, ring: ring}
	cl.Client = NewClient(f, cfg.OnDone)
	trans.Register(clientID, cl.Client.Receive)

	if cfg.Source != nil {
		cl.src = &safeSource{src: cfg.Source}
	}
	cl.Nodes = make([]*Node, n)
	cl.Replicas = make([]*core.Replica, n)
	cl.Execs = make([]*ReplicaExecutor, n)
	cl.Stores = make([]*wal.Store, n)
	cl.reps = make([]*Assembled, n)
	for i := 0; i < n; i++ {
		if err := cl.buildReplica(i); err != nil {
			return nil, err
		}
	}
	for _, nd := range cl.Nodes {
		nd.Start()
	}
	return cl, nil
}

// OpenDurable mounts a replica's WAL directory, replays and re-verifies the
// retained chain, and derives the consensus resume state from the persisted
// stable checkpoint. Disk that contradicts itself degrades safely rather
// than poisoning the replica: the chain keeps only its verified prefix, and
// a chain that cannot vouch for the persisted certificate (or a truncated
// chain with no certificate at all) is reset to genesis so the replica
// rejoins over the network instead of serving records nobody attested.
//
// The fourth return is the execution snapshot the WAL recovered and
// frame-verified against the manifest (nil when none survived — the
// forward-replay fallback). Callers decode it with ycsb.DecodeSnapshot and
// restore the table only when the resume itself verifies; a decode failure
// quarantines through Store.QuarantineSnapshot.
func OpenDurable(dir string, cfg wal.Config) (*ledger.Ledger, *wal.Store, *core.ResumeState, []byte, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	st, rec, err := wal.Open(dir, cfg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	lg, _, replayErr := ledger.Restore(rec.Snapshot, rec.Blocks, st)
	if replayErr != nil {
		cfg.Logf("wal: %v", replayErr)
	}
	if rec.Checkpoint == nil {
		if lg.Snapshot().Height > 0 {
			// A truncated chain whose certificate is gone cannot prove its
			// own resume point. Fail loudly and start over.
			cfg.Logf("wal: truncated chain at base %d has no checkpoint certificate; resetting", rec.Snapshot.Height)
			lg.Reset(ledger.Snapshot{})
		}
		return lg, st, nil, nil, nil
	}
	ck := rec.Checkpoint
	res := &core.ResumeState{Cert: ck.Cert, ExecHash: ck.ExecHash, Resume: ck.Resume, Anchors: ck.Anchors}
	// The replayed chain must vouch for the certificate: its hash at the
	// certified height has to equal the attested resume. (A crash between
	// manifest write and segment truncation leaves the base below the
	// certified height — the chain still covers the cut and verifies.)
	head, _ := lg.Head()
	if hh, ok := chainHashAt(lg, ck.Cert.Height); head < ck.Cert.Height || !ok || hh != ck.Resume {
		cfg.Logf("wal: replayed chain (head %d) cannot vouch for checkpoint at %d; resetting", head, ck.Cert.Height)
		lg.Reset(ledger.Snapshot{})
		return lg, st, nil, nil, nil
	}
	return lg, st, res, rec.ExecSnapshot, nil
}

// ApplyResume validates a restored resume state against the replica's
// consensus configuration and wires it in: on success cfg.Resume is set and
// the executor's delivery cursor jumps to the certified height, so the
// catch-up replay confirms the WAL-replayed blocks instead of duplicating
// them. On failure (tampered manifest, wrong cluster shape, checkpointing
// disabled) the resume is dropped and the returned error says why; a chain
// based above genesis is then reset, because consensus restarts at delivery
// 0 and a truncated chain would desync every appended height. A nil res
// only applies the reset rule.
//
// snapData is the WAL-recovered execution snapshot (OpenDurable's fourth
// return; nil for none). It is decoded and bound to the certificate before
// verification and restored into the table only after the resume verifies —
// a table restored under a rejected resume would diverge from the
// genesis-restarted execution. A snapshot that fails the canonical decode
// or names a different cut is quarantined and the replica falls back to
// forward-replay; the resume itself stays valid, since the ledger path is
// attested independently.
func ApplyResume(res *core.ResumeState, snapData []byte, cfg *core.Config, prov crypto.Provider, exec *ReplicaExecutor) error {
	var snap *ycsb.TableSnapshot
	if res != nil && len(snapData) > 0 {
		s, err := ycsb.DecodeSnapshot(snapData)
		if err != nil || s.Height != res.Cert.Height || s.ExecHash != res.ExecHash {
			if exec.durable != nil {
				exec.durable.QuarantineSnapshot(res.Cert.Height)
			}
		} else {
			snap = s
			res.SnapshotHeight, res.SnapshotExec = s.Height, s.ExecHash
		}
	}
	var verr error
	if res != nil {
		if verr = core.VerifyResume(res, *cfg, prov); verr == nil {
			cfg.Resume = res
			exec.delivered = res.Cert.Height
			if snap != nil {
				exec.store.Restore(snap)
				exec.stable = &cutSnapshot{height: snap.Height, data: append([]byte(nil), snapData...)}
				if exec.durable != nil {
					exec.durable.NoteSnapshotRestored(len(snapData))
				}
			}
		}
	}
	if cfg.Resume == nil {
		if lg := exec.Ledger(); lg.Snapshot().Height > 0 {
			lg.Reset(ledger.Snapshot{})
		}
	}
	return verr
}

// buildReplica constructs (or reconstructs) replica i through Assemble.
// With DataDir set, the ledger is restored from the replica's WAL and
// consensus resumes from the persisted stable checkpoint (validated by
// core.VerifyResume; anything unverifiable is dropped and the replica
// rejoins over the network).
func (c *Cluster) buildReplica(i int) error {
	id := types.NodeID(i)
	prov, err := c.ring.Provider(id)
	if err != nil {
		return err
	}
	ccfg := core.DefaultConfig(c.N, c.cfg.Instances)
	ccfg.InitialRecordingTimeout = 100 * time.Millisecond
	ccfg.InitialCertifyTimeout = 100 * time.Millisecond
	ccfg.MinTimeout = 10 * time.Millisecond
	ccfg.IdleBackoff = c.cfg.IdleBackoff
	ccfg.CheckpointInterval = max(c.cfg.CheckpointInterval, 0)
	spec := ReplicaSpec{
		Node: NodeConfig{
			ID: id, N: c.N, F: c.F,
			Transport: c.Transport, Crypto: prov, Source: c.src,
			Workers: AutoWorkers(c.cfg.InstanceWorkers, c.cfg.Instances),
		},
		Consensus: ccfg,
		WAL:       wal.Config{Fsync: c.cfg.Fsync},
		Records:   c.cfg.Records,
	}
	if c.cfg.DataDir != "" {
		spec.DataDir = filepath.Join(c.cfg.DataDir, fmt.Sprintf("r%d", i))
		if c.cfg.FSFor != nil {
			spec.WAL.FS = c.cfg.FSFor(i)
		}
	}
	if c.cfg.Tune != nil {
		spec.Tune = func(cfg *core.Config) { c.cfg.Tune(i, cfg) }
	}
	r, err := Assemble(spec)
	if err != nil {
		return fmt.Errorf("runtime: replica %d: %w", i, err)
	}
	c.reps[i] = r
	c.Nodes[i], c.Replicas[i], c.Execs[i], c.Stores[i] = r.Node, r.Core, r.Exec, r.WAL
	return nil
}

// Kill crashes replica i: its event loop stops and its in-memory state —
// consensus bookkeeping, YCSB table, ledger — is abandoned. The WAL store,
// if any, is abandoned too WITHOUT a final sync (the kill-9 model): only
// what the fsync policy already made durable survives a subsequent
// power-cut (wal.MemFS.Crash) and is replayed by Restart.
func (c *Cluster) Kill(i int) { c.reps[i].Kill() }

// Restart brings a killed replica back, as a crashed process would restart.
// Memory-only replicas rejoin empty through the checkpoint subsystem (hear
// attestations, fetch the stable checkpoint, install anchors and the
// transferred segment). Durable replicas replay their WAL first and resume
// from the persisted stable checkpoint, fetching only the missing suffix.
func (c *Cluster) Restart(i int) error {
	if err := c.buildReplica(i); err != nil {
		return err
	}
	c.Nodes[i].Start()
	return nil
}

// Stop shuts down all replicas, closing durable stores cleanly (final
// sync) — the opposite of Kill.
func (c *Cluster) Stop() {
	for _, r := range c.reps {
		_ = r.Stop()
	}
}
