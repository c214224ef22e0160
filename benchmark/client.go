package main

import (
	"sync"
	"time"

	"spotless/internal/types"
)

// retransmitAfter is the §5 client timer: a batch nobody acknowledged this
// long after it last entered a queue is offered again.
const retransmitAfter = 500 * time.Millisecond

// failAfter is how long past the end of the measure interval an operation may
// still be acknowledged before it counts as failed, and the latency limit
// goodput applies on the paced workloads.
const failAfter = 2 * time.Second

type vote struct {
	from    types.NodeID
	results types.Digest
}

// op is one client batch from its first due time to its acknowledgement.
type op struct {
	batch *types.Batch
	id    types.Digest
	txns  int
	lane  int32

	due     time.Duration // first due time; latency is always measured from here
	late    time.Duration // how long after due the generator first offered it
	offered time.Duration // last time it entered a queue
	queued  bool
	votes   []vote
	acked   time.Duration // 0 until f+1 matching Informs arrived

	// Stage stamps, first occurrence only, set by the trace decorators.
	pulled, certified, execStart, execEnd time.Duration
}

// client plays the §5 client for every substrate: per-lane queues the
// primaries (or dissemination layers) pull through Next, f+1 matching
// Informs to acknowledge, and re-offering of whatever stays unacknowledged.
// It keeps no clock of its own, so the same code runs on wall time and on
// the simulator's virtual time.
type client struct {
	mu  sync.Mutex
	f   int
	now func() time.Duration

	queues   [][]*op
	pending  map[types.Digest]*op
	inflight []*op // pending in issue order: the re-offer scan must not depend on map order
	done     []*op

	retransmits int
	// rotate moves a re-offered batch to the next lane. Under digest
	// ordering a lane is one origin replica, and the §5 client resends to
	// the next replica; an instance lane is served by every primary in turn.
	rotate bool

	// refill, when set, is called outside the lock after each
	// acknowledgement: the closed loop issues the lane's next batch there.
	refill func(lane int32)
	// replay, when set, asks the replicas to answer a retransmission from
	// their reply caches; true means an already-executed batch was answered
	// and must not be queued again (the delivery layer would drop it).
	replay func(id types.Digest) bool
}

func newClient(lanes, f int, now func() time.Duration) *client {
	return &client{f: f, now: now, queues: make([][]*op, lanes), pending: make(map[types.Digest]*op)}
}

// offer queues a new batch on its lane. due is when the schedule wanted it
// sent; the difference to now is the generator's lateness.
func (c *client) offer(b *types.Batch, lane int32, due time.Duration) {
	now := c.now()
	o := &op{batch: b, id: b.ID, txns: len(b.Txns), lane: lane, due: due, late: now - due, offered: now, queued: true}
	c.mu.Lock()
	c.pending[o.id] = o
	c.inflight = append(c.inflight, o)
	c.queues[lane] = append(c.queues[lane], o)
	c.mu.Unlock()
}

// Next implements runtime.BatchSource and simnet.BatchSource.
func (c *client) Next(lane int32, _ time.Duration) *types.Batch {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int(lane) >= len(c.queues) {
		return nil
	}
	q := c.queues[lane]
	for len(q) > 0 {
		o := q[0]
		q[0] = nil
		q = q[1:]
		o.queued = false
		if o.acked != 0 || o.lane != lane {
			continue // acknowledged while it waited here, or moved on to the next lane
		}
		c.queues[lane] = q
		if o.pulled == 0 {
			o.pulled = c.now()
		}
		return o.batch
	}
	c.queues[lane] = q
	return nil
}

// Receive is the client endpoint's transport receiver.
func (c *client) Receive(from types.NodeID, msg types.Message) {
	if inf, ok := msg.(*types.Inform); ok {
		c.inform(from, inf)
	}
}

// inform counts one Inform; the batch completes on f+1 matching results.
func (c *client) inform(from types.NodeID, inf *types.Inform) {
	c.mu.Lock()
	o := c.pending[inf.BatchID]
	if o == nil {
		c.mu.Unlock()
		return
	}
	matching := 1
	for _, v := range o.votes {
		if v.from == from {
			c.mu.Unlock()
			return
		}
		if v.results == inf.Results {
			matching++
		}
	}
	o.votes = append(o.votes, vote{from, inf.Results})
	if matching <= c.f {
		c.mu.Unlock()
		return
	}
	o.acked = c.now()
	o.batch, o.votes = nil, nil
	delete(c.pending, o.id)
	c.done = append(c.done, o)
	refill := c.refill
	c.mu.Unlock()
	if refill != nil {
		refill(o.lane)
	}
}

// reoffer puts every batch that has waited retransmitAfter since it last
// entered a queue back at the head of its lane — or, when lanes are origin
// replicas, at the head of the next lane, whether or not the silent replica
// ever pulled it.
func (c *client) reoffer() {
	now := c.now()
	c.mu.Lock()
	var stale []*op
	live := c.inflight[:0]
	for _, o := range c.inflight {
		if o.acked != 0 {
			continue
		}
		live = append(live, o)
		if (!o.queued || c.rotate) && now-o.offered >= retransmitAfter {
			stale = append(stale, o)
		}
	}
	for i := len(live); i < len(c.inflight); i++ {
		c.inflight[i] = nil
	}
	c.inflight = live
	replay := c.replay
	c.mu.Unlock()

	for _, o := range stale {
		answered := replay != nil && replay(o.id)
		c.mu.Lock()
		if o.acked == 0 && (!o.queued || c.rotate) {
			o.offered = now
			c.retransmits++
			if !answered {
				if c.rotate {
					o.lane = (o.lane + 1) % int32(len(c.queues))
				}
				o.queued = true
				c.queues[o.lane] = append([]*op{o}, c.queues[o.lane]...)
			}
		}
		c.mu.Unlock()
	}
}

// stamp records the first time a stage boundary was seen for a batch.
func (c *client) stamp(id types.Digest, set func(o *op, now time.Duration)) {
	now := c.now()
	c.mu.Lock()
	if o := c.pending[id]; o != nil {
		set(o, now)
	}
	c.mu.Unlock()
}

func (c *client) ackedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// outstanding reports how many batches are neither acknowledged nor failed.
func (c *client) outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// results returns the acknowledged and the still-unacknowledged operations.
// Call once the load has stopped.
func (c *client) results() (acked, unacked []*op, retransmits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, o := range c.inflight {
		if o.acked == 0 {
			unacked = append(unacked, o)
		}
	}
	return c.done, unacked, c.retransmits
}
