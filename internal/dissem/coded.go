package dissem

import (
	"spotless/internal/crypto"
	"spotless/internal/protocol"
	"spotless/internal/rs"
	"spotless/internal/types"
)

// Coded dissemination (Config.CodeK = k > 0): instead of pushing the full
// payload to all n−1 peers, the origin erasure-codes the batch into
// m = n−1 chunks (k data + m−k parity, internal/rs), commits to the chunk
// layout with the ordered chunk-hash list (crypto.ChunkCommitRoot), and
// sends each peer exactly ONE chunk — cutting origin egress from
// (n−1)·|B| to ~(n−1)/k·|B| plus the commitment overhead.
//
// Acks attest chunk custody AGAINST the commitment: a replica signs
// types.CodedAckBytes(id, root) only after verifying its assigned chunk's
// hash, and only for the FIRST commitment it sees per batch id — so two
// different commitments for one id can never both gather n−f acks (the
// certificates would share f+1 correct signers). Because that ack budget
// is one-time, a commitment is ADOPTED only from the origin itself or
// with a verified inline certificate — a third party cannot race a
// spoofed layout that would burn the ack and censor the genuine batch.
// The availability certificate is unchanged on the wire
// (BatchCert{BatchID, Sigs}) but now proves ≥ n−2f correct chunk holders
// with DISTINCT chunks, so any replica reconstructs from any k ≤ n−2f
// chunks.
//
// Coded mode carries payloads ONLY as chunks: full-payload BatchDigest
// pushes and pulls are refused outright (dissem.OnMessage), and delivery
// resolution is certification-gated (Layer.Payload returns a foreign
// batch only once the entry holds the certificate over its adopted
// layout). Together these close the split where a Byzantine origin
// certifies a garbage layout, lets every correct replica poison to the
// canonical empty batch, yet feeds ONE victim the genuine payload through
// an ungated side channel — the victim would deliver real transactions
// the rest of the cluster never sees.
//
// Reconstruction is AVID-style deterministic: decode from any k verified
// chunks, re-encode the whole codeword, and check every chunk hash against
// the commitment plus the decoded batch against its consensus-ordered
// digest. If the CERTIFIED commitment fails this check, every correct
// replica fails it identically (chunks that hash-match the commitment are
// byte-identical across replicas, and if any k-subset decodes to a
// hash-matching codeword then all subsets do), so all correct replicas
// deliver the same canonical empty batch — counted as a reconstruction
// failure, never a divergence. An UNCERTIFIED commitment that fails is
// simply discarded; the certified layout is recoverable from any backfill
// response, which carries commitment and certificate inline.

// chunkCommit is an adopted chunk-layout commitment for one batch.
type chunkCommit struct {
	k       int
	dataLen int
	hashes  []types.Digest
	root    types.Digest
}

// chunkCount is the codeword width: one chunk per non-origin peer.
func (l *Layer) chunkCount() int { return l.cfg.N - 1 }

// maxCodeK bounds the data-chunk count so a certificate still guarantees
// retrievability: n−f acks imply ≥ n−2f correct holders of distinct chunks
// even when the origin itself is faulty.
func maxCodeK(n, f int) int {
	k := n - 2*f
	if m := n - 1; k > m {
		k = m
	}
	if k < 1 {
		k = 1
	}
	return k
}

// peerIdx maps a non-origin peer to its assigned chunk index, -1 for the
// origin itself (which holds the whole codeword).
func peerIdx(origin, p types.NodeID) int {
	if p == origin {
		return -1
	}
	if p < origin {
		return int(p)
	}
	return int(p) - 1
}

// chunkHolder maps a chunk index back to its assigned peer.
func chunkHolder(origin types.NodeID, idx int) types.NodeID {
	if idx < int(origin) {
		return types.NodeID(idx)
	}
	return types.NodeID(idx + 1)
}

// disseminateCoded encodes and spreads one own batch: one chunk per peer,
// every chunk message carrying the full commitment so receivers verify
// custody before acking.
func (l *Layer) disseminateCoded(b *types.Batch) {
	k, m := l.cfg.CodeK, l.chunkCount()
	payload := types.EncodeBatchPayload(b)
	shards, err := rs.Encode(k, m, payload)
	if err != nil {
		l.ctx.Logf("dissem: coded encode failed (k=%d m=%d): %v", k, m, err)
		return
	}
	hashes := make([]types.Digest, m)
	for i := range shards {
		hashes[i] = crypto.ChunkHash(shards[i])
	}
	root := crypto.ChunkCommitRoot(uint32(k), uint32(len(payload)), hashes)
	sig := l.ctx.Crypto().Sign(types.CodedAckBytes(b.ID, root))

	// Wire cost of one chunk push, identical for every peer.
	perPeer := types.ControlMsgSize + len(shards[0]) + m*32

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
	e.commit = &chunkCommit{k: k, dataLen: len(payload), hashes: hashes, root: root}
	e.chunks = shards
	e.have = m
	if e.acks == nil {
		e.acks = make(map[types.NodeID]types.Signature, protocol.Quorum(l.cfg.N, l.cfg.F))
	}
	e.acks[l.self] = sig
	l.stats.Disseminated++
	l.stats.ChunksSent += uint64(m)
	l.stats.PushedBytes += uint64(m * perPeer)
	fire := l.maybeCertifyLocked(b.ID, e)
	l.mu.Unlock()

	for p := 0; p < l.cfg.N; p++ {
		pid := types.NodeID(p)
		idx := peerIdx(l.self, pid)
		if idx < 0 {
			continue
		}
		l.ctx.Send(pid, &types.BatchChunk{
			Origin: l.self, BatchID: b.ID,
			K: uint32(k), DataLen: uint32(len(payload)), Hashes: hashes,
			Index: uint32(idx), Data: shards[idx],
		})
	}
	if fire != nil {
		fire()
	}
}

// validChunkShape screens a chunk message's geometry against this cluster's
// coding parameters before any hashing happens.
func (l *Layer) validChunkShape(m *types.BatchChunk) bool {
	k := int(m.K)
	if k < 1 || k > maxCodeK(l.cfg.N, l.cfg.F) {
		return false
	}
	if len(m.Hashes) != l.chunkCount() || int(m.Index) >= len(m.Hashes) {
		return false
	}
	return len(m.Data) == rs.ShardLen(k, int(m.DataLen))
}

// onChunk handles one coded chunk (push or backfill response). Inline
// certificates (Sigs) were verified at ingress against the commitment root
// derived from this very message, so a non-empty Sigs field is a proven
// availability certificate for this chunk layout.
func (l *Layer) onChunk(from types.NodeID, m *types.BatchChunk) {
	if m.Pull {
		l.onChunkPull(from, m)
		return
	}
	if !l.validChunkShape(m) || crypto.ChunkHash(m.Data) != m.Hashes[m.Index] {
		l.mu.Lock()
		l.stats.ChunkRejects++
		l.mu.Unlock()
		return
	}
	root := crypto.ChunkCommitRoot(m.K, m.DataLen, m.Hashes)
	hasCert := len(m.Sigs) > 0
	id := m.BatchID

	var ack *types.BatchAck
	l.mu.Lock()
	if _, done := l.tombs[id]; done {
		l.mu.Unlock()
		return
	}
	e := l.getOrCreateLocked(id)
	if e.mine || e.poisoned {
		l.mu.Unlock()
		return
	}
	switch {
	case e.commit == nil:
		if !hasCert && from != m.Origin {
			// An unattested commitment relayed by a third party. Adopting it
			// — and spending the one-time ack on it — would let a faulty
			// peer race a spoofed layout for a correct origin's batch id:
			// the genuine chunks would then fail the root check and the
			// batch could never gather n−f acks. Only the origin itself, or
			// a verified inline certificate, introduces a layout.
			l.stats.ChunkRejects++
			l.mu.Unlock()
			return
		}
		e.commit = &chunkCommit{k: int(m.K), dataLen: int(m.DataLen), hashes: m.Hashes, root: root}
		e.origin = m.Origin
		e.chunks = make([][]byte, len(m.Hashes))
	case e.commit.root != root:
		if e.cert != nil || !hasCert {
			// Ours is certified (a conflicting certified layout is
			// impossible), or the newcomer is no better attested than what
			// we hold: an equivocating origin's second layout, dropped.
			l.stats.ChunkRejects++
			l.mu.Unlock()
			return
		}
		// The incoming layout carries a verified certificate and ours does
		// not: ours was the equivocator's dead branch. Adopt the certified
		// layout and restart chunk collection under it. The ack budget for
		// this id stays spent — custody of the first-seen layout is all a
		// correct replica ever attests.
		e.commit = &chunkCommit{k: int(m.K), dataLen: int(m.DataLen), hashes: m.Hashes, root: root}
		e.origin = m.Origin
		e.chunks = make([][]byte, len(m.Hashes))
		e.have = 0
		e.batch = nil
	}
	var fire func()
	if hasCert && e.cert == nil {
		e.cert = m.Sigs
		l.stats.CertsSeen++
		fire = l.notifyLocked(id)
	}
	idx := int(m.Index)
	if e.chunks[idx] == nil {
		e.chunks[idx] = m.Data
		e.have++
		l.stats.ChunksReceived++
	}
	// Ack custody once per id, and only for our ASSIGNED chunk: the
	// availability argument counts distinct chunks across distinct correct
	// ackers, so acking someone else's chunk would overstate coverage.
	if !e.acked && idx == peerIdx(m.Origin, l.self) {
		e.acked = true
		ack = &types.BatchAck{Origin: m.Origin, BatchID: id,
			Sig: l.ctx.Crypto().Sign(types.CodedAckBytes(id, root))}
	}
	var fire2 func()
	if e.batch == nil && e.have >= e.commit.k {
		fire2 = l.reconstructLocked(id, e)
	}
	l.mu.Unlock()
	if ack != nil {
		if m.Origin == l.self {
			l.onAck(l.self, ack)
		} else {
			l.ctx.Send(m.Origin, ack)
		}
	}
	if fire != nil {
		fire()
	}
	if fire2 != nil {
		fire2()
	}
}

// reconstructLocked decodes the payload from the collected chunks and
// verifies the FULL re-encoded codeword against the commitment plus the
// decoded batch against its digest. Returns the deferred notify.
//
// Outcomes:
//   - success: e.batch is the decoded payload (content-addressed by the
//     consensus-ordered digest, so correct regardless of which chunks fed
//     the decoder);
//   - certified commitment fails: deterministic poison — every correct
//     replica computes the same failure, delivers the same canonical empty
//     batch (see the package comment's consistency argument);
//   - uncertified commitment fails: discard the layout entirely and let
//     backfill recover the certified one.
func (l *Layer) reconstructLocked(id types.Digest, e *entry) func() {
	c := e.commit
	shards := make([][]byte, len(e.chunks))
	copy(shards, e.chunks)
	ok := rs.Reconstruct(c.k, shards) == nil
	if ok {
		for i := range shards {
			if crypto.ChunkHash(shards[i]) != c.hashes[i] {
				ok = false
				break
			}
		}
	}
	var batch *types.Batch
	if ok {
		data, err := rs.Join(c.k, shards, c.dataLen)
		if err == nil {
			if b, derr := types.DecodeBatchPayload(data); derr == nil &&
				b.ID == id && types.ComputeBatchID(b.Txns) == id {
				batch = b
			}
		}
	}
	if batch != nil {
		e.batch = batch
		e.chunks = shards // full codeword: serve any index to pullers
		e.have = len(shards)
		l.stats.Reconstructions++
		return l.notifyLocked(id)
	}
	if e.cert != nil {
		// The certified layout is provably garbage — identically so on
		// every correct replica. Deliver the canonical empty batch.
		e.poisoned = true
		e.batch = &types.Batch{ID: id}
		l.stats.ReconstructFails++
		return l.notifyLocked(id)
	}
	// Uncertified garbage: drop the layout, keep the entry, re-backfill.
	e.commit = nil
	e.chunks = nil
	e.have = 0
	l.stats.ChunkRejects++
	return nil
}

// onChunkPull serves a chunk backfill request from our store. The response
// carries the commitment and the certificate inline, so one response is
// enough for the puller to recover both even if it missed push and cert.
//
// Preference order keeps concurrently-asked responders DISTINCT: a specific
// requested index first, then the responder's own assigned chunk (each
// peer's is different), then anything held.
func (l *Layer) onChunkPull(from types.NodeID, m *types.BatchChunk) {
	if from == l.self {
		return
	}
	l.mu.Lock()
	e := l.entries[m.BatchID]
	if e == nil || e.commit == nil || e.poisoned {
		l.mu.Unlock()
		return
	}
	idx := -1
	if m.Index != types.ChunkAny && int(m.Index) < len(e.chunks) && e.chunks[m.Index] != nil {
		idx = int(m.Index)
	} else if ai := peerIdx(e.origin, l.self); ai >= 0 && ai < len(e.chunks) && e.chunks[ai] != nil {
		idx = ai
	} else {
		for i, c := range e.chunks {
			if c != nil {
				idx = i
				break
			}
		}
	}
	if idx < 0 {
		l.mu.Unlock()
		return
	}
	resp := &types.BatchChunk{
		Origin: e.origin, BatchID: m.BatchID,
		K: uint32(e.commit.k), DataLen: uint32(e.commit.dataLen), Hashes: e.commit.hashes,
		Index: uint32(idx), Data: e.chunks[idx],
		Sigs: e.cert,
	}
	l.stats.Served++
	l.stats.ChunksSent++
	l.stats.ServedBytes += uint64(resp.WireSize())
	l.mu.Unlock()
	l.ctx.Send(from, resp)
}

// backfillChunks is the coded replacement for the single-peer full-payload
// pull: one round asks SEVERAL peers in parallel, each for a distinct chunk
// — the parked drain pulls k small chunks concurrently instead of one big
// payload. The round width grows with the retry count and the window
// rotates (like the full-push 2f+1 fallback set), so lost pulls and
// unhelpful peers are routed around. Rate-limited per digest.
func (l *Layer) backfillChunks(id types.Digest, hint types.NodeID) {
	now := l.ctx.Now()
	l.mu.Lock()
	if _, done := l.tombs[id]; done {
		l.mu.Unlock()
		return
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

	type ask struct {
		idx uint32
		to  types.NodeID
	}
	var asks []ask
	mtot := l.chunkCount()
	if e.commit != nil {
		// Known layout: ask the assigned holders of missing chunks,
		// rotating the starting chunk so retries and concurrent pullers
		// spread over different holders.
		var missing []int
		for i, c := range e.chunks {
			if c == nil {
				missing = append(missing, i)
			}
		}
		need := e.commit.k - e.have
		if need < 1 {
			need = 1 // payload reconstructed or nearly so: pull for the cert
		}
		width := need + try
		if width > len(missing) {
			width = len(missing)
		}
		if width == 0 && e.batch == nil {
			// Everything stored yet no payload: impossible layout state;
			// nothing to ask for.
			l.mu.Unlock()
			return
		}
		start := int(id[0]) + int(l.self) + try
		for i := 0; i < width; i++ {
			idx := missing[(start+i)%len(missing)]
			to := chunkHolder(e.origin, idx)
			if to == l.self {
				// Our own assigned chunk is missing (we joined via backfill):
				// only the origin holds the full codeword to serve it.
				to = e.origin
			}
			asks = append(asks, ask{idx: uint32(idx), to: to})
		}
		if len(missing) == 0 {
			// Cert-only pull: any responder's chunk response carries it.
			asks = append(asks, ask{idx: types.ChunkAny, to: chunkHolder(e.origin, (start)%mtot)})
		}
		// Retries escalate to the origin, which holds the whole codeword.
		if try > 0 && e.origin != l.self {
			want := types.ChunkAny
			if len(missing) > 0 {
				want = uint32(missing[start%len(missing)])
			}
			asks = append(asks, ask{idx: want, to: e.origin})
		}
	} else {
		// Layout unknown (digest learned from consensus, push never seen):
		// ask a rotated window of peers for whatever chunk they hold —
		// responders answer with their own assigned chunk, so distinct
		// peers return distinct chunks, and every response carries the
		// commitment and certificate.
		width := l.cfg.CodeK + 1 + try
		if width > l.cfg.N-1 {
			width = l.cfg.N - 1
		}
		if hint >= 0 && int(hint) < l.cfg.N && hint != l.self {
			asks = append(asks, ask{idx: types.ChunkAny, to: hint})
		}
		for i, added := 0, 0; added < width && i < l.cfg.N; i++ {
			p := types.NodeID((int(id[0]) + try + i) % l.cfg.N)
			if p == l.self || (len(asks) > 0 && p == hint) {
				continue
			}
			asks = append(asks, ask{idx: types.ChunkAny, to: p})
			added++
		}
	}
	l.stats.ChunkPulls += uint64(len(asks))
	l.mu.Unlock()

	for _, a := range asks {
		l.ctx.Send(a.to, &types.BatchChunk{BatchID: id, Index: a.idx, Pull: true})
	}
}
