package dissem

import (
	"testing"
	"time"

	"spotless/internal/crypto"
	"spotless/internal/protocol"
	"spotless/internal/types"
)

// fakeCtx is a minimal protocol.Context recording sends and serving one
// batch queue.
type fakeCtx struct {
	id      types.NodeID
	now     time.Duration
	prov    crypto.Provider
	sent    []types.Message
	sends   []sendRec // point-to-point sends with their recipient
	pending []*types.Batch
	lanes   []int32 // batch-source lanes pulled, in order
}

type sendRec struct {
	to  types.NodeID
	msg types.Message
}

func newFakeCtx(id types.NodeID) *fakeCtx {
	return &fakeCtx{id: id, prov: crypto.NewSimProvider(id, crypto.CostModel{}, nil)}
}

func (c *fakeCtx) ID() types.NodeID   { return c.id }
func (c *fakeCtx) N() int             { return 4 }
func (c *fakeCtx) F() int             { return 1 }
func (c *fakeCtx) Now() time.Duration { return c.now }
func (c *fakeCtx) Send(to types.NodeID, m types.Message) {
	c.sent = append(c.sent, m)
	c.sends = append(c.sends, sendRec{to: to, msg: m})
}
func (c *fakeCtx) Broadcast(m types.Message)                 { c.sent = append(c.sent, m) }
func (c *fakeCtx) SetTimer(time.Duration, protocol.TimerTag) {}
func (c *fakeCtx) VerifyAsync(protocol.VerifyJob)            {}
func (c *fakeCtx) Crypto() crypto.Provider                   { return c.prov }
func (c *fakeCtx) Deliver(types.Commit)                      {}
func (c *fakeCtx) Logf(string, ...any)                       {}
func (c *fakeCtx) NextBatch(lane int32) *types.Batch {
	c.lanes = append(c.lanes, lane)
	if len(c.pending) == 0 {
		return nil
	}
	b := c.pending[0]
	c.pending = c.pending[1:]
	return b
}

func testBatch(seq uint64) *types.Batch {
	b := &types.Batch{
		Txns:      []types.Transaction{{Client: types.ClientIDBase, Seq: seq, Op: types.OpWrite, Key: seq, Value: []byte("v")}},
		Submitted: 1,
	}
	b.ID = types.ComputeBatchID(b.Txns)
	return b
}

func ackFrom(id types.NodeID, batchID types.Digest) *types.BatchAck {
	prov := crypto.NewSimProvider(id, crypto.CostModel{}, nil)
	return &types.BatchAck{Origin: 0, BatchID: batchID, Sig: prov.Sign(types.AckBytes(batchID))}
}

func newTestLayer(id types.NodeID) (*Layer, *fakeCtx, *[]types.Digest) {
	ctx := newFakeCtx(id)
	l := New(Config{N: 4, F: 1})
	var notified []types.Digest
	l.Bind(ctx, func(d types.Digest) { notified = append(notified, d) })
	return l, ctx, &notified
}

// TestOriginCertifiesAtQuorum: the origin broadcasts its batch once,
// assembles the availability certificate at n−f distinct acks (its own
// included), broadcasts the certificate, and hands the batch to the
// proposal queue exactly once.
func TestOriginCertifiesAtQuorum(t *testing.T) {
	l, ctx, notified := newTestLayer(0)
	b := testBatch(1)
	ctx.pending = append(ctx.pending, b)
	l.Pump()

	var pushes int
	for _, m := range ctx.sent {
		if d, ok := m.(*types.BatchDigest); ok && !d.Pull {
			pushes++
		}
	}
	if pushes != 1 {
		t.Fatalf("payload broadcast %d times, want exactly once", pushes)
	}
	if l.Certified(b.ID) {
		t.Fatal("certified with only the self-ack")
	}
	l.OnMessage(1, ackFrom(1, b.ID)) // 2 of 3
	if l.Certified(b.ID) {
		t.Fatal("certified below the n−f quorum")
	}
	l.OnMessage(2, ackFrom(2, b.ID)) // 3 of 3
	if !l.Certified(b.ID) {
		t.Fatal("not certified at n−f acks")
	}
	var certs int
	for _, m := range ctx.sent {
		if c, ok := m.(*types.BatchCert); ok {
			if len(c.Sigs) != 3 {
				t.Fatalf("certificate carries %d signatures, want 3", len(c.Sigs))
			}
			certs++
		}
	}
	if certs != 1 {
		t.Fatalf("certificate broadcast %d times, want exactly once", certs)
	}
	if len(*notified) == 0 {
		t.Fatal("notify did not fire on certification")
	}
	if got := l.NextCertified(); got == nil || got.ID != b.ID {
		t.Fatalf("NextCertified = %v, want the certified batch", got)
	}
	if again := l.NextCertified(); again != nil {
		t.Fatalf("NextCertified handed the batch out twice: %v", again)
	}
	// A duplicate ack after certification changes nothing.
	l.OnMessage(3, ackFrom(3, b.ID))
}

// TestReceiverAcksValidPayloadOnly: a receiving replica stores a pushed
// payload and acks the origin once; a payload that does not hash to its
// claimed ID is dropped without an ack.
func TestReceiverAcksValidPayloadOnly(t *testing.T) {
	l, ctx, _ := newTestLayer(1)
	b := testBatch(2)
	l.OnMessage(0, &types.BatchDigest{Origin: 0, Batch: b})
	l.OnMessage(0, &types.BatchDigest{Origin: 0, Batch: b}) // duplicate push
	var acks int
	for _, m := range ctx.sent {
		if _, ok := m.(*types.BatchAck); ok {
			acks++
		}
	}
	if acks != 1 {
		t.Fatalf("receiver sent %d acks, want exactly 1", acks)
	}
	if l.Payload(b.ID) == nil {
		t.Fatal("payload not stored")
	}

	forged := testBatch(3)
	forged.ID = types.Digest{0xba, 0xdd}
	before := len(ctx.sent)
	l.OnMessage(0, &types.BatchDigest{Origin: 0, Batch: forged})
	if len(ctx.sent) != before {
		t.Fatal("receiver acked a payload that does not hash to its ID")
	}
	if l.Payload(forged.ID) != nil {
		t.Fatal("forged payload stored")
	}
}

// TestBackfillFirstAskAndRateLimit: the very first backfill of a digest
// goes out immediately — even at virtual time zero, where a fresh entry's
// zero-valued rate-limit clock used to look like a recent ask — and
// repeats within backfillInterval are suppressed.
func TestBackfillFirstAskAndRateLimit(t *testing.T) {
	l, ctx, _ := newTestLayer(0)
	id := types.Digest{7}
	l.Backfill(id, 1)
	var pulls int
	for _, m := range ctx.sent {
		if d, ok := m.(*types.BatchDigest); ok && d.Pull {
			pulls++
		}
	}
	if pulls < 2 { // hint + min(2f+1, n−1) fallback peers, minus overlaps
		t.Fatalf("first backfill sent %d pulls, want the hint plus the fallback window", pulls)
	}
	before := len(ctx.sent)
	ctx.now = 10 * time.Millisecond // < backfillInterval
	l.Backfill(id, 1)
	if len(ctx.sent) != before {
		t.Fatal("backfill not rate-limited within backfillInterval")
	}
	ctx.now = 100 * time.Millisecond
	l.Backfill(id, 1)
	if len(ctx.sent) == before {
		t.Fatal("backfill suppressed after backfillInterval elapsed")
	}
}

// pullTargets collects the distinct recipients of pull requests sent after
// offset in the send log.
func pullTargets(ctx *fakeCtx, offset int) map[types.NodeID]bool {
	got := make(map[types.NodeID]bool)
	for _, s := range ctx.sends[offset:] {
		if d, ok := s.msg.(*types.BatchDigest); ok && d.Pull {
			got[s.to] = true
		}
	}
	return got
}

// TestBackfillAsksWidelyAndRotates: a certificate only proves n−f ackers —
// up to 2f−1 of the other replicas can be unhelpful (f faulty plus f−1
// correct non-holders) — so one backfill round must reach min(2f+1, n−1)
// distinct peers, and successive retries must rotate the window so every
// peer is eventually asked even when pulls are lost.
func TestBackfillAsksWidelyAndRotates(t *testing.T) {
	ctx := newFakeCtx(0)
	l := New(Config{N: 7, F: 2})
	l.Bind(ctx, nil)

	id := types.Digest{1}
	l.Backfill(id, -1)
	first := pullTargets(ctx, 0)
	if len(first) != 5 { // min(2f+1, n−1) = 5
		t.Fatalf("first backfill asked %d peers, want 2f+1 = 5", len(first))
	}
	union := make(map[types.NodeID]bool)
	for p := range first {
		union[p] = true
	}
	for round := 1; round <= 6; round++ {
		mark := len(ctx.sends)
		ctx.now += time.Second // past the rate limit
		l.Backfill(id, -1)
		got := pullTargets(ctx, mark)
		if len(got) != 5 {
			t.Fatalf("round %d asked %d peers, want 5", round, len(got))
		}
		for p := range got {
			if p == 0 {
				t.Fatal("backfill asked self")
			}
			union[p] = true
		}
	}
	if len(union) != 6 { // every other replica reached across rounds
		t.Fatalf("rotation reached %d distinct peers over 7 rounds, want all 6", len(union))
	}
}

// TestUnorderedStoreBounded: stored-but-unordered foreign entries are
// FIFO-bounded by maxUnordered — a Byzantine peer pushing valid-hash
// garbage that never commits cannot grow the store without limit.
func TestUnorderedStoreBounded(t *testing.T) {
	ctx := newFakeCtx(1)
	l := New(Config{N: 4, F: 1})
	l.Bind(ctx, nil)

	for seq := uint64(0); seq < maxUnordered+10; seq++ {
		l.OnMessage(0, &types.BatchDigest{Origin: 0, Batch: testBatch(seq + 100)})
	}
	l.mu.Lock()
	stored := len(l.entries)
	l.mu.Unlock()
	if stored > maxUnordered {
		t.Fatalf("store holds %d unordered foreign entries, want ≤ maxUnordered = %d", stored, maxUnordered)
	}
}

// TestPumpPullsOwnLane: a replica disseminates what clients sent it, so
// its layer pulls the source lane of its own id. The zero Config used to
// pull lane 0 on every replica, starving lanes 1..n−1.
func TestPumpPullsOwnLane(t *testing.T) {
	ctx := newFakeCtx(2)
	l := New(Config{N: 4, F: 1})
	l.Bind(ctx, nil)
	l.Pump()
	if len(ctx.lanes) == 0 {
		t.Fatal("Pump never pulled the batch source")
	}
	for _, lane := range ctx.lanes {
		if lane != 2 {
			t.Fatalf("replica 2 pulled lane %d, want its own lane 2", lane)
		}
	}
}

// TestDeliveredTombstoneRefusesResurrection: once a delivered entry leaves
// the payload store, a replayed certificate or push must not re-create
// it — the digest stays Ordered (so the claim gate refuses it) and is
// neither re-certified, re-stored, nor re-acked.
func TestDeliveredTombstoneRefusesResurrection(t *testing.T) {
	ctx := newFakeCtx(1)
	l := New(Config{N: 4, F: 1})
	l.Bind(ctx, nil)

	old, fresh := testBatch(201), testBatch(202)
	ack := func(b *types.Batch) []types.Signature {
		return []types.Signature{
			ackFrom(1, b.ID).Sig, ackFrom(2, b.ID).Sig, ackFrom(3, b.ID).Sig,
		}
	}
	for h, b := range []*types.Batch{old, fresh} {
		l.OnMessage(0, &types.BatchDigest{Origin: 0, Batch: b})
		l.OnMessage(0, &types.BatchCert{BatchID: b.ID, Sigs: ack(b)})
		l.Delivered(b.ID, uint64(h+1))
	}
	// A stable checkpoint at height 1 evicts old into a tombstone.
	l.GCToFrontier(1)
	if l.Payload(old.ID) != nil {
		t.Fatal("evicted payload still stored")
	}
	if !l.Ordered(old.ID) {
		t.Fatal("evicted delivered digest not tombstoned")
	}

	before := len(ctx.sent)
	l.OnMessage(0, &types.BatchCert{BatchID: old.ID, Sigs: ack(old)})
	if l.Certified(old.ID) {
		t.Fatal("replayed certificate resurrected a delivered digest")
	}
	l.OnMessage(0, &types.BatchDigest{Origin: 0, Batch: old})
	if l.Payload(old.ID) != nil {
		t.Fatal("replayed push re-stored a delivered payload")
	}
	if len(ctx.sent) != before {
		t.Fatal("replica acked or re-requested a tombstoned digest")
	}
	l.Backfill(old.ID, 0)
	if len(ctx.sent) != before {
		t.Fatal("backfill requested a tombstoned digest")
	}
	if !l.Ordered(old.ID) || !l.Ordered(fresh.ID) {
		t.Fatal("Ordered lost track of delivered digests")
	}
}

// TestIngressJobScreensSignatures: acks and certificates declare their
// signature checks for the substrate's verification pool; pushes verify by
// payload hash in the handler instead.
func TestIngressJobScreensSignatures(t *testing.T) {
	l, _, _ := newTestLayer(0)
	b := testBatch(4)

	job, ok := l.IngressJob(1, ackFrom(1, b.ID))
	if !ok || len(job.Checks) == 0 {
		t.Fatal("ack signature not screened at ingress")
	}
	cert := &types.BatchCert{BatchID: b.ID, Sigs: []types.Signature{
		ackFrom(1, b.ID).Sig, ackFrom(2, b.ID).Sig, ackFrom(3, b.ID).Sig,
	}}
	job, ok = l.IngressJob(1, cert)
	if !ok || len(job.Checks) != 3 || job.Quorum != 3 {
		t.Fatalf("certificate screening: ok=%v checks=%d quorum=%d, want 3 checks at quorum 3", ok, len(job.Checks), job.Quorum)
	}
	// A push carries no signatures: "no checks, deliver" per the substrate
	// contract (ok=false), the handler validates the payload hash.
	if job, ok = l.IngressJob(1, &types.BatchDigest{Origin: 1, Batch: b}); ok || len(job.Checks) != 0 {
		t.Fatal("push must declare no signature checks")
	}
}
