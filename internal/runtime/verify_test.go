package runtime_test

import (
	"testing"
	"time"

	"spotless/internal/crypto"
	"spotless/internal/protocol"
	"spotless/internal/runtime"
	"spotless/internal/types"
)

// sigProbe is a toy protocol whose only message type (HSVote) carries a
// signature, declared for ingress screening; it records what the substrate
// lets through.
type sigProbe struct {
	got       chan types.NodeID
	completed chan struct {
		tag protocol.TimerTag
		ok  bool
	}
	verify []protocol.VerifyJob // jobs issued at Start via ctx
	ctx    protocol.Context
}

func (p *sigProbe) Start() {
	for _, job := range p.verify {
		p.ctx.VerifyAsync(job)
	}
}
func (p *sigProbe) HandleMessage(from types.NodeID, msg types.Message) { p.got <- from }
func (p *sigProbe) HandleTimer(protocol.TimerTag)                      {}
func (p *sigProbe) HandleVerified(tag protocol.TimerTag, ok bool) {
	p.completed <- struct {
		tag protocol.TimerTag
		ok  bool
	}{tag, ok}
}

// IngressJob implements protocol.IngressVerifier.
func (p *sigProbe) IngressJob(from types.NodeID, msg types.Message) (protocol.VerifyJob, bool) {
	m, ok := msg.(*types.HSVote)
	if !ok {
		return protocol.VerifyJob{}, false
	}
	return protocol.VerifyJob{
		Checks: []crypto.Check{{Sig: m.Sig, Msg: m.Block[:]}},
		Quorum: 1,
	}, true
}

func newProbeNode(t *testing.T) (*runtime.Node, *sigProbe, *runtime.LocalTransport, *crypto.Keyring) {
	t.Helper()
	ring := crypto.NewKeyring([]byte("verify-test"), []types.NodeID{0, 1})
	prov, err := ring.Provider(1)
	if err != nil {
		t.Fatal(err)
	}
	trans := runtime.NewLocalTransport()
	node := runtime.NewNode(runtime.NodeConfig{
		ID: 1, N: 2, F: 0, Transport: trans, Crypto: prov,
	})
	probe := &sigProbe{
		ctx: node,
		got: make(chan types.NodeID, 16),
		completed: make(chan struct {
			tag protocol.TimerTag
			ok  bool
		}, 16),
	}
	node.SetProtocol(probe)
	return node, probe, trans, ring
}

// TestNodeIngressScreening: messages with forged declared signatures are
// verified on the node's pool and dropped before the event loop; valid ones
// are delivered.
func TestNodeIngressScreening(t *testing.T) {
	node, probe, trans, ring := newProbeNode(t)
	node.Start()
	defer node.Stop()

	p0, _ := ring.Provider(0)
	d := types.Digest{42}
	trans.Send(0, 1, &types.HSVote{View: 1, Block: d, Sig: p0.Sign(d[:])})
	trans.Send(0, 1, &types.HSVote{View: 1, Block: d, Sig: types.Signature{Signer: 0, Bytes: []byte("junk")}})

	select {
	case from := <-probe.got:
		if from != 0 {
			t.Fatalf("delivered from %d, want 0", from)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("valid message never delivered")
	}
	select {
	case <-probe.got:
		t.Fatal("forged message reached the state machine")
	case <-time.After(200 * time.Millisecond):
	}
	if node.BadSigs() != 1 {
		t.Fatalf("BadSigs = %d, want 1", node.BadSigs())
	}
}

// TestNodeVerifyAsync: completions are posted back to the event loop with
// the job's verdict and tag.
func TestNodeVerifyAsync(t *testing.T) {
	node, probe, _, ring := newProbeNode(t)
	p0, _ := ring.Provider(0)
	msg := []byte("cert claim")
	probe.verify = []protocol.VerifyJob{
		{Tag: protocol.TimerTag{Kind: protocol.TimerVerify, Seq: 1},
			Checks: []crypto.Check{{Sig: p0.Sign(msg), Msg: msg}}, Quorum: 1},
		{Tag: protocol.TimerTag{Kind: protocol.TimerVerify, Seq: 2},
			Checks: []crypto.Check{{Sig: types.Signature{Signer: 0, Bytes: []byte("junk")}, Msg: msg}}, Quorum: 1},
	}
	node.Start()
	defer node.Stop()

	verdicts := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		select {
		case c := <-probe.completed:
			if c.tag.Kind != protocol.TimerVerify {
				t.Fatalf("completion tag %+v, want TimerVerify kind", c.tag)
			}
			verdicts[c.tag.Seq] = c.ok
		case <-time.After(5 * time.Second):
			t.Fatal("verification completions never arrived")
		}
	}
	if !verdicts[1] || verdicts[2] {
		t.Fatalf("verdicts %v, want seq1=true seq2=false", verdicts)
	}
}
