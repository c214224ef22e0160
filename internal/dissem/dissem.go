// Package dissem is the batch-dissemination layer that decouples payload
// fan-out from consensus (the Mandator/Narwhal split): the replica that
// receives a client batch broadcasts the payload ONCE (BatchDigest), every
// replica that stores it answers with a signed availability ack (BatchAck),
// and at n−f distinct acks the origin assembles and broadcasts an
// availability certificate (BatchCert). From then on consensus carries only
// the constant-size batch digest: proposals reference certified digests,
// and the delivery path resolves a digest back to its payload — with a
// rate-limited pull/backfill fallback for replicas that missed the push.
//
// The certificate rule is what keeps digest ordering safe: n−f acks imply
// at least n−2f ≥ f+1 CORRECT replicas hold the payload, so any replica
// can always backfill a certified digest, and a digest without a
// certificate is never claimed (core folds this check into the strict
// resolution rules) and therefore can never commit.
//
// The layer is deliberately substrate-neutral (it speaks only
// protocol.Context) and internally mutex-guarded: core calls it from
// instance shards (NextCertified, Certified, Backfill), from the ordering
// shard (message handling, delivery resolution), and from ingress
// goroutines (IngressJob), so every entry point locks.
package dissem

import (
	"sort"
	"sync"
	"time"

	"spotless/internal/crypto"
	"spotless/internal/protocol"
	"spotless/internal/types"
)

// TimerKind tags the layer's periodic pump/requeue timer. Core routes
// tags of this kind back into the layer; the tag's Instance is always
// protocol.OrderingShard so sharded substrates serialize it there.
const TimerKind = 101

// Config parameterizes the layer.
type Config struct {
	N, F int

	// CodeK enables erasure-coded dissemination (see coded.go): own batches
	// are split into CodeK data chunks plus n−1−CodeK parity chunks and each
	// peer receives exactly one, cutting origin egress from (n−1)·|B| to
	// roughly (n−1)/k·|B|. Bounded by n−2f so the availability certificate
	// still guarantees reconstruction (clamped in New). 0 (the default)
	// keeps the classic full-payload push.
	CodeK int

	// Deprecated: ignored. A layer always pulls the batch-source lane of
	// its own replica id: with dissemination the source is partitioned per
	// ORIGIN, not per consensus instance.
	Lane int32
}

// Fixed layer parameters. Each was a Config field that no deployment,
// drill or benchmark ever set to a second value.
const (
	// maxInFlight bounds this replica's own batches in flight: pulled from
	// the batch source and disseminated but not yet delivered. The
	// closed-loop client usually binds first; the window is the safety net
	// that stops an unordered backlog from growing without bound.
	maxInFlight = 64
	// pumpInterval paces the periodic source pull (and the requeue sweep).
	pumpInterval = 5 * time.Millisecond
	// backfillInterval rate-limits pull requests per missing digest.
	backfillInterval = 50 * time.Millisecond
	// requeueAfter re-queues an own certified batch whose referencing
	// proposal never delivered (a failed view dropped it).
	requeueAfter = time.Second
	// retainOrdered bounds delivered entries kept for peers' backfills. It
	// mirrors the executor's reply cache and must cover the delivery lag of
	// the slowest replica, which checkpoint/state transfer bounds in turn.
	retainOrdered = 4096
	// maxUnordered bounds stored entries that are neither our own nor yet
	// delivered. Without it a single Byzantine peer could grow the store
	// without limit — pushing valid-hash garbage batches that never commit,
	// or certifying batches it never proposes. Oldest entries evict first;
	// a certified entry evicted early is re-backfillable from its other
	// holders.
	maxUnordered = 8192
	// retainDelivered bounds the delivered-digest tombstones kept after an
	// entry leaves the retainOrdered window. Tombstones let the claim gate
	// refuse replayed certificates of long-delivered digests (whose
	// payloads every correct replica may have evicted — committing one
	// would wedge delivery on an impossible backfill) long after the
	// payload itself is gone. Digest-sized, so the window can be much
	// larger than the payload store.
	retainDelivered = 1 << 16
)

// entry tracks one disseminated batch.
type entry struct {
	batch  *types.Batch // payload (nil until pushed/backfilled)
	origin types.NodeID
	cert   []types.Signature // availability certificate (nil until assembled/received)

	acks map[types.NodeID]types.Signature // origin only: collected acks

	// Coded mode only (Config.CodeK > 0):
	commit   *chunkCommit // adopted chunk-layout commitment
	chunks   [][]byte     // chunk store, indexed by chunk index
	have     int          // non-nil chunks stored
	poisoned bool         // certified layout proven inconsistent: canonical empty delivery

	mine       bool
	acked      bool          // we already sent our ack for this payload
	inReady    bool          // queued for proposing (own batches only)
	proposedAt time.Duration // last NextCertified hand-out (requeue clock)
	ordered    bool
	asked      bool          // at least one backfill went out
	lastAsk    time.Duration // backfill rate limit
	tries      int           // backfills sent (rotates the fallback peer window)
}

// Stats are the layer's monotonic counters (read via Layer.Stats).
type Stats struct {
	Disseminated uint64 // own batches broadcast
	CertsBuilt   uint64 // availability certificates assembled from acks
	CertsSeen    uint64 // certificates received from peers
	Backfills    uint64 // pull requests sent
	Served       uint64 // pull requests answered with a payload or chunk
	Requeued     uint64 // own batches re-queued after a lost proposal

	// Egress accounting (wire bytes of dissemination payload traffic, both
	// modes — the substrate-independent basis for the coded-vs-full egress
	// comparison).
	PushedBytes uint64 // origin push egress (full payloads or chunks)
	ServedBytes uint64 // backfill-serving egress

	// Coded mode only:
	ChunksSent       uint64 // chunks pushed by origin or served to pullers
	ChunksReceived   uint64 // valid chunks stored
	ChunkRejects     uint64 // chunks dropped: bad shape/hash, conflicting or inconsistent layout
	ChunkPulls       uint64 // chunk backfill requests sent
	Reconstructions  uint64 // payloads decoded from k chunks
	ReconstructFails uint64 // certified layouts proven inconsistent (poisoned deliveries)
}

// Layer is one replica's dissemination state. Construct with New, then
// core.New binds it to the replica's protocol context; one Layer serves
// exactly one replica.
type Layer struct {
	mu     sync.Mutex
	cfg    Config
	ctx    protocol.Context
	self   types.NodeID
	notify func(types.Digest) // fired (outside the lock) when a digest gains a cert or payload

	entries map[types.Digest]*entry
	ready   []*types.Batch // own certified batches awaiting proposal, FIFO
	infly   int            // own batches pulled and not yet delivered

	orderedQ   []orderedRef   // FIFO of delivered entries with their delivery heights
	unorderedQ []types.Digest // FIFO of foreign entries, for the maxUnordered bound

	tombs map[types.Digest]struct{} // delivered digests evicted from entries
	tombQ []types.Digest            // FIFO over tombs, for the retainDelivered bound

	stats Stats
}

// New creates an unbound layer.
func New(cfg Config) *Layer {
	if cfg.CodeK > 0 {
		// Clamp k so any availability certificate still guarantees
		// reconstruction: n−f acks imply ≥ n−2f correct holders of distinct
		// chunks (see coded.go).
		if max := maxCodeK(cfg.N, cfg.F); cfg.CodeK > max {
			cfg.CodeK = max
		}
	}
	return &Layer{
		cfg:     cfg,
		entries: make(map[types.Digest]*entry),
		tombs:   make(map[types.Digest]struct{}),
	}
}

// getOrCreateLocked returns the entry for id, creating and bounding it when
// missing: foreign entries enter the unordered FIFO, and beyond maxUnordered
// the oldest stored-but-unordered foreign entries are evicted (own and
// delivered entries are accounted by the maxInFlight and retainOrdered
// bounds instead). Certified entries evict like any other — a crashed or Byzantine
// origin can certify batches it never proposes, so protecting them would
// re-open the unbounded-store hole; an evicted certified payload is
// re-backfillable from its remaining holders.
func (l *Layer) getOrCreateLocked(id types.Digest) *entry {
	e := l.entries[id]
	if e != nil {
		return e
	}
	e = &entry{}
	l.entries[id] = e
	l.unorderedQ = append(l.unorderedQ, id)
	for len(l.unorderedQ) > maxUnordered {
		drop := l.unorderedQ[0]
		l.unorderedQ = l.unorderedQ[1:]
		if de := l.entries[drop]; de != nil && !de.mine && !de.ordered {
			delete(l.entries, drop)
		}
	}
	return e
}

// Bind attaches the layer to its replica's substrate context. notify fires
// whenever a digest gains its certificate or its payload — core uses it to
// retry claim-gated proposals and to resume a parked delivery. Called by
// core.New, before Start and before any message can arrive.
func (l *Layer) Bind(ctx protocol.Context, notify func(types.Digest)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ctx = ctx
	l.self = ctx.ID()
	l.notify = notify
}

// Start begins disseminating: first pull plus the periodic pump timer.
func (l *Layer) Start() {
	l.Pump()
	l.ctx.SetTimer(pumpInterval, protocol.TimerTag{Kind: TimerKind, Instance: protocol.OrderingShard})
}

// OnTimer handles the periodic pump/requeue tick.
func (l *Layer) OnTimer() {
	l.requeueLost()
	l.Pump()
	l.ctx.SetTimer(pumpInterval, protocol.TimerTag{Kind: TimerKind, Instance: protocol.OrderingShard})
}

// Pump pulls client batches from the source (the replica's own lane) and
// disseminates them, up to the flow-control window.
func (l *Layer) Pump() {
	for {
		l.mu.Lock()
		if l.infly >= maxInFlight {
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()
		b := l.ctx.NextBatch(int32(l.self))
		if b == nil {
			return
		}
		l.disseminate(b)
	}
}

// disseminate broadcasts one own batch and records the self-ack.
func (l *Layer) disseminate(b *types.Batch) {
	if l.cfg.CodeK > 0 {
		l.disseminateCoded(b)
		return
	}
	sig := l.ctx.Crypto().Sign(types.AckBytes(b.ID))
	l.mu.Lock()
	e := l.entries[b.ID]
	if e == nil {
		e = &entry{}
		l.entries[b.ID] = e
	}
	if e.mine { // duplicate pull (source retransmission): already in flight
		l.mu.Unlock()
		return
	}
	l.infly++
	e.mine = true
	e.origin = l.self
	e.batch = b
	if e.acks == nil {
		e.acks = make(map[types.NodeID]types.Signature, protocol.Quorum(l.cfg.N, l.cfg.F))
	}
	e.acks[l.self] = sig
	l.stats.Disseminated++
	push := &types.BatchDigest{Origin: l.self, Batch: b}
	l.stats.PushedBytes += uint64((l.cfg.N - 1) * push.WireSize())
	fire := l.maybeCertifyLocked(b.ID, e)
	l.mu.Unlock()
	l.ctx.Broadcast(push)
	if fire != nil {
		fire()
	}
}

// OnMessage handles one pre-verified dissemination message (BatchDigest
// payload hashes are validated here; BatchAck and BatchCert signatures were
// screened at ingress, see IngressJob).
func (l *Layer) OnMessage(from types.NodeID, msg types.Message) {
	switch m := msg.(type) {
	case *types.BatchDigest:
		if l.cfg.CodeK > 0 {
			// Coded mode: payloads travel ONLY as chunks bound to a layout
			// commitment. Accepting a full-payload push here would let a
			// Byzantine origin certify a garbage layout yet feed one victim
			// the genuine batch — the victim delivers real transactions while
			// every other correct replica poisons to the canonical empty
			// batch, splitting honest ledgers. Full pulls are refused for the
			// same reason: no correct peer sends them in coded mode.
			return
		}
		if m.Pull {
			l.onPull(from, m)
		} else {
			l.onPush(m)
		}
	case *types.BatchAck:
		l.onAck(from, m)
	case *types.BatchCert:
		l.onCert(m)
	case *types.BatchChunk:
		if l.cfg.CodeK > 0 {
			l.onChunk(from, m)
		}
	}
}

// onPush stores a disseminated payload and acks its availability to the
// origin. The payload must hash to its claimed ID — acks attest that the
// CORRECT payload is retrievable, which is what makes delivery-time
// resolution sound.
func (l *Layer) onPush(m *types.BatchDigest) {
	b := m.Batch
	if b == nil || types.ComputeBatchID(b.Txns) != b.ID {
		return
	}
	var ack *types.BatchAck
	l.mu.Lock()
	if _, done := l.tombs[b.ID]; done {
		// Delivered and evicted: don't resurrect the entry, and don't ack —
		// we no longer hold the payload, so an ack would attest falsely.
		l.mu.Unlock()
		return
	}
	e := l.getOrCreateLocked(b.ID)
	var fire func()
	if e.batch == nil {
		e.batch = b
		e.origin = m.Origin
		fire = l.notifyLocked(b.ID)
	}
	if !e.acked && !e.mine {
		e.acked = true
		ack = &types.BatchAck{Origin: m.Origin, BatchID: b.ID,
			Sig: l.ctx.Crypto().Sign(types.AckBytes(b.ID))}
	}
	l.mu.Unlock()
	if ack != nil {
		if m.Origin == l.self {
			l.onAck(l.self, ack) // served backfill of our own batch
		} else {
			l.ctx.Send(m.Origin, ack)
		}
	}
	if fire != nil {
		fire()
	}
}

// onPull serves a backfill request from our store.
func (l *Layer) onPull(from types.NodeID, m *types.BatchDigest) {
	if m.Batch == nil || from == l.self {
		return
	}
	id := m.Batch.ID
	l.mu.Lock()
	e := l.entries[id]
	var payload *types.Batch
	var cert []types.Signature
	var origin types.NodeID
	var resp *types.BatchDigest
	if e != nil && e.batch != nil {
		payload, cert, origin = e.batch, e.cert, e.origin
		resp = &types.BatchDigest{Origin: origin, Batch: payload}
		l.stats.Served++
		l.stats.ServedBytes += uint64(resp.WireSize())
	}
	l.mu.Unlock()
	if payload == nil {
		return
	}
	l.ctx.Send(from, resp)
	if cert != nil {
		l.ctx.Send(from, &types.BatchCert{BatchID: id, Sigs: cert})
	}
}

// onAck tallies one availability ack for an own batch; n−f distinct acks
// assemble the certificate.
func (l *Layer) onAck(from types.NodeID, m *types.BatchAck) {
	if m.Origin != l.self || m.Sig.Signer != from {
		return // misrouted or mis-attributed (ingress already screens these)
	}
	l.mu.Lock()
	e := l.entries[m.BatchID]
	if e == nil || !e.mine || e.cert != nil {
		l.mu.Unlock()
		return
	}
	if _, dup := e.acks[from]; dup {
		l.mu.Unlock()
		return
	}
	e.acks[from] = m.Sig
	fire := l.maybeCertifyLocked(m.BatchID, e)
	l.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// maybeCertifyLocked assembles and broadcasts the availability certificate
// once n−f distinct acks are in. Returns the deferred notify (run it after
// unlocking).
func (l *Layer) maybeCertifyLocked(id types.Digest, e *entry) func() {
	if e.cert != nil || len(e.acks) < protocol.Quorum(l.cfg.N, l.cfg.F) {
		return nil
	}
	sigs := make([]types.Signature, 0, len(e.acks))
	for _, s := range e.acks {
		sigs = append(sigs, s)
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i].Signer < sigs[j].Signer })
	e.cert = sigs
	l.stats.CertsBuilt++
	if !e.inReady && !e.ordered {
		e.inReady = true
		l.ready = append(l.ready, e.batch)
	}
	l.ctx.Broadcast(&types.BatchCert{BatchID: id, Sigs: sigs})
	return l.notifyLocked(id)
}

// onCert stores a received availability certificate (ingress verified n−f
// distinct signatures over the ack bytes). A certificate for a delivered
// digest is dropped: replaying an old cert must not re-create an entry (and
// thereby a claimable digest) whose payload the cluster already evicted.
func (l *Layer) onCert(m *types.BatchCert) {
	l.mu.Lock()
	if _, done := l.tombs[m.BatchID]; done {
		l.mu.Unlock()
		return
	}
	e := l.getOrCreateLocked(m.BatchID)
	var fire func()
	var prefetch bool
	if e.cert == nil {
		e.cert = m.Sigs
		l.stats.CertsSeen++
		fire = l.notifyLocked(m.BatchID)
		// Coded mode: a fresh certificate means this digest will likely be
		// ordered soon, yet we hold only our own pushed chunk. Start pulling
		// the other k−1 chunks NOW so reconstruction overlaps consensus
		// instead of parking the delivery drain for a pull round-trip.
		prefetch = l.cfg.CodeK > 0 && e.batch == nil
	}
	l.mu.Unlock()
	if prefetch {
		l.backfillChunks(m.BatchID, -1)
	}
	if fire != nil {
		fire()
	}
}

// notifyLocked snapshots the notify callback for the caller to fire after
// unlocking (the callback posts into core's shard mailboxes).
func (l *Layer) notifyLocked(id types.Digest) func() {
	if l.notify == nil {
		return nil
	}
	cb := l.notify
	return func() { cb(id) }
}

// NextCertified pops the next own certified batch for proposing, pulling
// more client load opportunistically. Returns nil when nothing is
// certified yet — the caller falls back to its idle pacing.
func (l *Layer) NextCertified() *types.Batch {
	l.mu.Lock()
	var b *types.Batch
	if len(l.ready) > 0 {
		b = l.ready[0]
		l.ready = l.ready[1:]
		if e := l.entries[b.ID]; e != nil {
			e.inReady = false
			e.proposedAt = l.ctx.Now()
		}
	}
	l.mu.Unlock()
	if b == nil {
		l.Pump() // keep the dissemination pipeline ahead of the proposer
	}
	return b
}

// Certified reports whether the digest has an availability certificate —
// the claim gate of digest-referencing proposals.
func (l *Layer) Certified(id types.Digest) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entries[id]
	return e != nil && e.cert != nil
}

// Payload resolves a digest to its stored payload, or nil.
//
// Coded mode adds a certification gate: a batch resolves only under the
// CERTIFIED chunk layout (or for our own batches, whose layout we built).
// Reconstruction under an uncertified layout may already have produced the
// content-addressed batch, but delivering it early would let a Byzantine
// origin hand one victim the genuine payload while the certified layout
// poisons everyone else to the canonical empty batch. Holding the batch
// until the certificate lands keeps every correct replica on the same
// resolution rule: e.cert is always the certificate over e.commit.root
// (onChunk resets the batch whenever a certified layout displaces an
// uncertified one, and a certified layout is never displaced), so a
// cert-gated batch is exactly one resolved under the certified layout.
func (l *Layer) Payload(id types.Digest) *types.Batch {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entries[id]
	if e == nil {
		return nil
	}
	if l.cfg.CodeK > 0 && !e.mine && e.cert == nil {
		return nil
	}
	return e.batch
}

// Backfill requests the payload (and certificate) of a digest we are
// missing: from the hinted replica (the proposal's primary) plus 2f+1
// digest-derived fallback peers. The width matters: a certificate proves
// n−f ackers, i.e. at least n−2f correct HOLDERS among the other n−1
// replicas — so up to 2f−1 of them can be unhelpful (f faulty plus up to
// f−1 correct replicas that never acked), and any 2f+1 distinct peers
// always include a correct holder. The window additionally rotates by the
// per-digest retry count, so pulls lost to the network re-target fresh
// peers instead of re-asking the same fixed set forever. Rate-limited per
// digest.
func (l *Layer) Backfill(id types.Digest, hint types.NodeID) {
	if l.cfg.CodeK > 0 {
		l.backfillChunks(id, hint)
		return
	}
	now := l.ctx.Now()
	l.mu.Lock()
	if _, done := l.tombs[id]; done {
		l.mu.Unlock()
		return // delivered and evicted: nothing left to fetch
	}
	e := l.getOrCreateLocked(id)
	if e.ordered || (e.batch != nil && e.cert != nil) ||
		(e.asked && now-e.lastAsk < backfillInterval) {
		l.mu.Unlock()
		return
	}
	e.asked = true
	e.lastAsk = now
	try := e.tries
	e.tries++
	l.stats.Backfills++
	l.mu.Unlock()

	req := &types.BatchDigest{Origin: l.self, Batch: &types.Batch{ID: id}, Pull: true}
	width := 2*l.cfg.F + 1
	if width > l.cfg.N-1 {
		width = l.cfg.N - 1
	}
	targets := make(map[types.NodeID]bool, width+2)
	if hint >= 0 && int(hint) < l.cfg.N && hint != l.self {
		targets[hint] = true
	}
	for i, added := 0, 0; added < width && i < l.cfg.N; i++ {
		p := types.NodeID((int(id[0]) + try + i) % l.cfg.N)
		if p == l.self || targets[p] {
			continue
		}
		targets[p] = true
		added++
	}
	for p := range targets {
		l.ctx.Send(p, req)
	}
}

// orderedRef remembers at which global delivery height a digest was
// ordered, so eviction can follow the checkpoint frontier.
type orderedRef struct {
	id     types.Digest
	height uint64
}

// Delivered marks a digest ordered and delivered at the given global
// delivery height: own in-flight credit is returned (opening the window for
// the next pull). Retention of the delivered payload is frontier-driven —
// GCToFrontier evicts everything at or below the stable checkpoint, where
// re-proposal and backfill are impossible by construction — with the
// retainOrdered count as a fallback cap for checkpoint-less deployments.
func (l *Layer) Delivered(id types.Digest, height uint64) {
	l.mu.Lock()
	e := l.entries[id]
	if e == nil || e.ordered {
		l.mu.Unlock()
		return
	}
	e.ordered = true
	if e.mine {
		l.infly--
	}
	if e.inReady { // delivered via another replica's re-proposal
		e.inReady = false
		for i, b := range l.ready {
			if b.ID == id {
				l.ready = append(l.ready[:i], l.ready[i+1:]...)
				break
			}
		}
	}
	l.orderedQ = append(l.orderedQ, orderedRef{id: id, height: height})
	for len(l.orderedQ) > retainOrdered {
		l.evictOrderedLocked()
	}
	l.mu.Unlock()
	l.Pump()
}

// evictOrderedLocked drops the oldest delivered entry, leaving a
// digest-sized tombstone well past payload eviction so a replayed
// certificate cannot resurrect the delivered digest.
func (l *Layer) evictOrderedLocked() {
	drop := l.orderedQ[0].id
	l.orderedQ = l.orderedQ[1:]
	delete(l.entries, drop)
	l.tombs[drop] = struct{}{}
	l.tombQ = append(l.tombQ, drop)
	for len(l.tombQ) > retainDelivered {
		t := l.tombQ[0]
		l.tombQ = l.tombQ[1:]
		delete(l.tombs, t)
	}
}

// GCToFrontier evicts delivered payloads at or below the stable checkpoint
// height. Behind the stable frontier consensus state is garbage-collected
// cluster-wide: no correct replica will re-propose such a digest, and
// rejoiners recover the region via state transfer rather than backfill —
// so holding the payloads serves no one. Eviction keyed to the frontier
// (instead of the fixed retainOrdered count) makes the payload store track
// exactly what consensus can still reference. Called from the ordering
// stage at every stabilization and state install.
func (l *Layer) GCToFrontier(stable uint64) {
	l.mu.Lock()
	for len(l.orderedQ) > 0 && l.orderedQ[0].height <= stable {
		l.evictOrderedLocked()
	}
	l.mu.Unlock()
}

// Ordered reports whether the digest is known delivered — a retained
// ordered entry or a tombstone kept after its eviction. The claim gate
// refuses ordered digests outright: a proposal re-referencing one is either
// a Byzantine certificate replay (whose payload every correct replica may
// already have evicted, so committing it would wedge delivery on an
// impossible backfill) or a lost-requeue race, and in both cases the view
// safely resolves without it.
func (l *Layer) Ordered(id types.Digest) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, done := l.tombs[id]; done {
		return true
	}
	e := l.entries[id]
	return e != nil && e.ordered
}

// requeueLost returns own certified-but-undelivered batches to the ready
// queue when their referencing proposal must have been lost (the view
// resolved empty or the proposal never certified).
func (l *Layer) requeueLost() {
	now := l.ctx.Now()
	l.mu.Lock()
	for _, e := range l.entries {
		if e.mine && e.cert != nil && !e.ordered && !e.inReady &&
			e.proposedAt > 0 && now-e.proposedAt > requeueAfter {
			e.inReady = true
			e.proposedAt = 0
			l.ready = append(l.ready, e.batch)
			l.stats.Requeued++
		}
	}
	l.mu.Unlock()
}

// IngressJob declares the signature checks of inbound dissemination
// messages (stateless; invoked concurrently with the event loop):
//
//   - BatchAck: one signature over the ack bytes, sender-bound (an ack not
//     signed by its sender, or not addressed to us, drops unverified at the
//     handler) — so a faulty replica cannot spend our verification budget
//     on forged third-party acks;
//   - BatchCert: n−f distinct signers structurally, then the full batch
//     verified at quorum n−f;
//   - BatchDigest: carries no signatures — the handler validates the
//     payload hash instead;
//   - BatchChunk (coded mode): pulls and bare chunks carry no signatures
//     (the handler validates the chunk hash against the commitment); a
//     chunk with an INLINE certificate is verified here against the
//     commitment root derived from the message's own fields, so the handler
//     may trust a non-empty Sigs field as a proven certificate.
//
// In coded mode the ack/cert preimage binds the chunk-layout commitment
// (types.CodedAckBytes), so verifying a BatchAck or BatchCert requires the
// locally adopted commitment root — looked up under the layer lock, which
// is safe concurrently with the event loop (the layer is internally
// mutex-guarded by design, see the package comment). A certificate arriving
// before any chunk of its batch drops at ingress; the chunk backfill path
// recovers it, since chunk responses carry the certificate inline.
//
// The bool result follows the substrate contract: false means "no checks
// needed, deliver" (the handler re-screens structurally).
func (l *Layer) IngressJob(from types.NodeID, msg types.Message) (protocol.VerifyJob, bool) {
	switch m := msg.(type) {
	case *types.BatchAck:
		if m.Origin != l.self || m.Sig.Signer != from {
			return protocol.VerifyJob{}, false // onAck drops these unread
		}
		ackMsg := types.AckBytes(m.BatchID)
		if l.cfg.CodeK > 0 {
			root, ok := l.commitRoot(m.BatchID)
			if !ok {
				return protocol.VerifyJob{Quorum: 1}, true // no layout of ours: infeasible, drop
			}
			ackMsg = types.CodedAckBytes(m.BatchID, root)
		}
		return protocol.VerifyJob{
			Checks: []crypto.Check{{Sig: m.Sig, Msg: ackMsg}},
			Quorum: 1,
		}, true
	case *types.BatchCert:
		q := protocol.Quorum(l.cfg.N, l.cfg.F)
		if crypto.DistinctSigners(m.Sigs) < q {
			return protocol.VerifyJob{Quorum: q}, true // infeasible: drop at ingress
		}
		ackMsg := types.AckBytes(m.BatchID)
		if l.cfg.CodeK > 0 {
			root, ok := l.commitRoot(m.BatchID)
			if !ok {
				return protocol.VerifyJob{Quorum: q}, true // layout unknown: drop, recover via chunk pull
			}
			ackMsg = types.CodedAckBytes(m.BatchID, root)
		}
		checks := make([]crypto.Check, len(m.Sigs))
		for i, sig := range m.Sigs {
			checks[i] = crypto.Check{Sig: sig, Msg: ackMsg}
		}
		return protocol.VerifyJob{Checks: checks, Quorum: q}, true
	case *types.BatchChunk:
		if l.cfg.CodeK <= 0 || m.Pull || len(m.Sigs) == 0 {
			return protocol.VerifyJob{}, false // no signatures to check
		}
		q := protocol.Quorum(l.cfg.N, l.cfg.F)
		if crypto.DistinctSigners(m.Sigs) < q {
			return protocol.VerifyJob{Quorum: q}, true // claimed cert is infeasible: drop
		}
		root := crypto.ChunkCommitRoot(m.K, m.DataLen, m.Hashes)
		ackMsg := types.CodedAckBytes(m.BatchID, root)
		checks := make([]crypto.Check, len(m.Sigs))
		for i, sig := range m.Sigs {
			checks[i] = crypto.Check{Sig: sig, Msg: ackMsg}
		}
		return protocol.VerifyJob{Checks: checks, Quorum: q}, true
	}
	return protocol.VerifyJob{}, false
}

// commitRoot returns the adopted chunk-layout commitment root for id.
func (l *Layer) commitRoot(id types.Digest) (types.Digest, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entries[id]
	if e == nil || e.commit == nil {
		return types.Digest{}, false
	}
	return e.commit.root, true
}

// Stats returns a snapshot of the layer's counters.
func (l *Layer) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}
