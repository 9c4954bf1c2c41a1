// Package simnet is an in-process, discrete-event message fabric. Nodes
// exchange messages over links with configurable latency, loss, and
// partitions, all on a shared virtual clock. It is the substrate under the
// Raft-backed partition registry and the networked key-value transports.
package simnet

import (
	"fmt"
	"time"

	"fluidmem/internal/clock"
)

// Message is a payload in flight between two nodes.
type Message struct {
	From    string
	To      string
	Payload any
}

// Handler consumes a message delivered to a node at virtual time now.
type Handler func(now time.Duration, msg Message)

// Network is the fabric. It owns the virtual clock shared by everything
// attached to it. Not safe for concurrent use (single-threaded DES).
type Network struct {
	Clock *clock.Clock

	defaultLink clock.LatencyModel
	links       map[string]clock.LatencyModel // "from->to"
	handlers    map[string]Handler
	partitioned map[string]bool // node isolation
	cutLinks    map[string]bool // directed link cuts, "from->to"
	lossRate    float64
	dupRate     float64
	rng         *clock.Rand
	sched       *clock.Scheduler // (at, insertion order): same-instant events fire in send order
	delivered   uint64
	dropped     uint64
	duplicated  uint64
	// droppedNoHandler counts messages to names with no registered handler —
	// misconfiguration (or a stopped node), counted separately from injected
	// chaos so tests can tell the two apart.
	droppedNoHandler uint64
}

// New creates a network whose links default to the given latency model.
func New(defaultLink clock.LatencyModel, seed uint64) *Network {
	return &Network{
		Clock:       clock.New(),
		defaultLink: defaultLink,
		links:       make(map[string]clock.LatencyModel),
		handlers:    make(map[string]Handler),
		partitioned: make(map[string]bool),
		cutLinks:    make(map[string]bool),
		rng:         clock.NewRand(seed),
		sched:       clock.NewScheduler(),
	}
}

// Register attaches a node with a message handler. Re-registering a name
// replaces its handler (used when a node restarts).
func (n *Network) Register(name string, h Handler) {
	n.handlers[name] = h
}

// SetLink overrides the latency model for the directed link from->to.
func (n *Network) SetLink(from, to string, m clock.LatencyModel) {
	n.links[linkKey(from, to)] = m
}

// SetLossRate drops each message independently with probability p.
func (n *Network) SetLossRate(p float64) {
	n.lossRate = p
}

// SetDuplicateRate delivers each message a second time with probability p
// (independent latency draw, so the copy may arrive before or after the
// original). At-least-once transports do exactly this on retransmit; clients
// that are not idempotent mis-apply the copy.
func (n *Network) SetDuplicateRate(p float64) {
	n.dupRate = p
}

// Partition isolates a node: messages to and from it are dropped.
func (n *Network) Partition(name string) {
	n.partitioned[name] = true
}

// Heal reconnects a previously partitioned node.
func (n *Network) Heal(name string) {
	delete(n.partitioned, name)
}

// Partitioned reports whether a node is currently isolated by Partition.
func (n *Network) Partitioned(name string) bool { return n.partitioned[name] }

// PartitionLink cuts the single directed link from->to: messages in that
// direction are dropped while the reverse direction keeps flowing. Real
// partial partitions are frequently asymmetric (a broken switch queue, a
// one-way firewall rule), and consensus protocols must survive them.
func (n *Network) PartitionLink(from, to string) {
	n.cutLinks[linkKey(from, to)] = true
}

// HealLink restores the directed link from->to.
func (n *Network) HealLink(from, to string) {
	delete(n.cutLinks, linkKey(from, to))
}

// PartitionPair cuts both directions between a and b — a pairwise partial
// partition. Unlike Partition(name), the two nodes keep talking to everyone
// else; only their mutual links are severed.
func (n *Network) PartitionPair(a, b string) {
	n.PartitionLink(a, b)
	n.PartitionLink(b, a)
}

// HealPair restores both directions between a and b.
func (n *Network) HealPair(a, b string) {
	n.HealLink(a, b)
	n.HealLink(b, a)
}

// LinkCut reports whether the directed link from->to is currently cut.
func (n *Network) LinkCut(from, to string) bool { return n.cutLinks[linkKey(from, to)] }

// Send schedules delivery of payload from->to after the link latency.
// Messages on the same link are delivered in send order (FIFO links).
func (n *Network) Send(from, to string, payload any) {
	if n.partitioned[from] || n.partitioned[to] || n.cutLinks[linkKey(from, to)] {
		n.dropped++
		return
	}
	if n.lossRate > 0 && n.rng.Float64() < n.lossRate {
		n.dropped++
		return
	}
	model := n.defaultLink
	if m, ok := n.links[linkKey(from, to)]; ok {
		model = m
	}
	msg := Message{From: from, To: to, Payload: payload}
	n.deliverAfter(model.Sample(n.rng), msg)
	// Duplication draws happen only when enabled so that existing seeds
	// reproduce the exact pre-duplication event sequences.
	if n.dupRate > 0 && n.rng.Float64() < n.dupRate {
		n.duplicated++
		n.deliverAfter(model.Sample(n.rng), msg)
	}
}

// deliverAfter schedules one delivery attempt of msg after delay.
func (n *Network) deliverAfter(delay time.Duration, msg Message) {
	n.schedule(n.Clock.Now()+delay, func(now time.Duration) {
		// A cut that lands while the message is in flight still eats it:
		// partitions sever the wire, not just the send queue.
		if n.partitioned[msg.To] || n.cutLinks[linkKey(msg.From, msg.To)] {
			n.dropped++
			return
		}
		h, ok := n.handlers[msg.To]
		if !ok {
			n.droppedNoHandler++
			return
		}
		n.delivered++
		h(now, msg)
	})
}

// After schedules fn to run after d elapses on the virtual clock.
func (n *Network) After(d time.Duration, fn func(now time.Duration)) {
	if d < 0 {
		d = 0
	}
	n.schedule(n.Clock.Now()+d, fn)
}

// Step delivers the next pending event, advancing the clock to it. It
// reports whether an event was processed.
func (n *Network) Step() bool { return n.sched.Step() }

// RunUntil processes events until the virtual clock reaches deadline or the
// queue drains, whichever comes first.
func (n *Network) RunUntil(deadline time.Duration) {
	n.sched.RunUntil(deadline)
	n.Clock.AdvanceTo(deadline)
}

// RunFor processes events for d of virtual time from now.
func (n *Network) RunFor(d time.Duration) {
	n.RunUntil(n.Clock.Now() + d)
}

// Drain runs events until the queue is empty or maxEvents have fired,
// returning the number of events processed. The cap guards against runaway
// timer loops in tests.
func (n *Network) Drain(maxEvents int) int {
	count := 0
	for count < maxEvents && n.Step() {
		count++
	}
	return count
}

// Pending reports the number of scheduled events.
func (n *Network) Pending() int { return n.sched.Len() }

// Stats reports delivered and dropped message counts. Dropped covers
// injected chaos (loss, partitions); silent drops at unregistered handlers
// are reported by DroppedNoHandler.
func (n *Network) Stats() (delivered, dropped uint64) {
	return n.delivered, n.dropped
}

// DroppedNoHandler reports messages dropped because their destination had
// no registered handler — misconfiguration, not injected chaos.
func (n *Network) DroppedNoHandler() uint64 { return n.droppedNoHandler }

// Duplicated reports messages that were injected a second delivery.
func (n *Network) Duplicated() uint64 { return n.duplicated }

// schedule queues fire for virtual time at. The clock may already be past at
// (someone advanced Clock directly), so fire sees the clock, not the event.
func (n *Network) schedule(at time.Duration, fire func(now time.Duration)) {
	n.sched.Schedule(at, 0, func(at time.Duration) {
		n.Clock.AdvanceTo(at)
		fire(n.Clock.Now())
	})
}

func linkKey(from, to string) string {
	return fmt.Sprintf("%s->%s", from, to)
}
