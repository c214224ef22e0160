package runtime

import (
	"testing"
	"time"

	"spotless/internal/protocol"
	"spotless/internal/types"
)

// heldProbe is a sharded toy protocol that routes every message to
// instance 0 and blocks in its first HandleMessage until release closes,
// so the test can fill the mailbox behind it.
type heldProbe struct {
	entered chan struct{}
	release chan struct{}
	timers  chan protocol.TimerTag
	held    bool // touched only on instance 0's loop
}

func newHeldProbe() *heldProbe {
	return &heldProbe{
		entered: make(chan struct{}),
		release: make(chan struct{}),
		timers:  make(chan protocol.TimerTag, 2),
	}
}

func (p *heldProbe) Start() {}
func (p *heldProbe) HandleMessage(types.NodeID, types.Message) {
	if !p.held {
		p.held = true
		close(p.entered)
		<-p.release
	}
}
func (p *heldProbe) HandleTimer(tag protocol.TimerTag) { p.timers <- tag }
func (p *heldProbe) ShardCount() int                   { return 2 }
func (p *heldProbe) InstanceOf(types.Message) int32    { return 0 }
func (p *heldProbe) BindShards(protocol.ShardPoster)   {}

func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s within 5s", what)
	}
}

var mailboxModes = []struct {
	name    string
	workers int
}{
	{"single mailbox", 1},
	{"sharded", 2},
}

func newHeldNode(workers int, p *heldProbe) *Node {
	n := NewNode(NodeConfig{ID: 0, N: 1, Transport: NewLocalTransport(), Workers: workers})
	n.SetProtocol(p)
	n.Start()
	return n
}

// TestMailboxNeverShedsTimers: a timer that expires while its mailbox is
// full still fires, exactly once, in both dispatch modes, and Dropped()
// counts only the shed message. Self-re-arming timers (the retransmission
// heartbeat, the dissemination pump) would otherwise stop for good after
// one lost tick.
func TestMailboxNeverShedsTimers(t *testing.T) {
	for _, mode := range mailboxModes {
		t.Run(mode.name, func(t *testing.T) {
			p := newHeldProbe()
			n := newHeldNode(mode.workers, p)
			defer n.Stop()

			msg := &types.Sync{Instance: 0}
			n.receive(1, msg)
			waitFor(t, p.entered, "first message never reached the handler")
			// inboxDepth fill the mailbox behind the held handler; one is shed.
			for i := 0; i < inboxDepth+1; i++ {
				n.receive(1, msg)
			}
			tag := protocol.TimerTag{Kind: protocol.TimerRecording, Instance: 0, Seq: 7}
			n.SetTimer(0, tag)
			time.Sleep(50 * time.Millisecond) // let the expiry meet the full mailbox
			close(p.release)

			select {
			case got := <-p.timers:
				if got != tag {
					t.Fatalf("timer fired with tag %+v, want %+v", got, tag)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("timer never fired within 5s (Dropped()=%d)", n.Dropped())
			}
			// A func posted after the expiry runs after it (FIFO): by then a
			// duplicate would have fired too.
			drained := make(chan struct{})
			n.PostShard(tag.Instance, func() { close(drained) })
			waitFor(t, drained, "mailbox never drained")
			if len(p.timers) != 0 {
				t.Fatal("timer fired more than once")
			}
			if d := n.Dropped(); d != 1 {
				t.Fatalf("Dropped()=%d, want 1 (the shed message, never the timer)", d)
			}
		})
	}
}

// TestMailboxPostShardSpillsFIFO: more than inboxDepth PostShard funcs
// posted to one held mailbox spill to its overflow queue and still run in
// post order, each exactly once.
func TestMailboxPostShardSpillsFIFO(t *testing.T) {
	for _, mode := range mailboxModes {
		t.Run(mode.name, func(t *testing.T) {
			p := newHeldProbe()
			n := newHeldNode(mode.workers, p)
			defer n.Stop()

			entered := make(chan struct{})
			n.PostShard(0, func() { close(entered); <-p.release })
			waitFor(t, entered, "holding func never ran")
			const posts = inboxDepth + 1000
			var ran []int // appended on the mailbox's loop only
			for i := 0; i < posts; i++ {
				n.PostShard(0, func() { ran = append(ran, i) })
			}
			drained := make(chan struct{})
			n.PostShard(0, func() { close(drained) })
			close(p.release)
			waitFor(t, drained, "posted funcs never drained")

			if len(ran) != posts {
				t.Fatalf("%d funcs ran, want %d", len(ran), posts)
			}
			for i, v := range ran {
				if v != i {
					t.Fatalf("func %d ran at position %d (FIFO broken)", v, i)
				}
			}
		})
	}
}
