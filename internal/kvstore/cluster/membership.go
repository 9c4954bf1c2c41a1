package cluster

import (
	"fmt"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/raft"
)

// leader returns the highest-term live controller leader, if any.
func (p *Pool) leader() *raft.Node {
	var lead *raft.Node
	for _, n := range p.ctrls {
		if n.Role() == raft.Leader {
			if lead == nil || n.Term() > lead.Term() {
				lead = n
			}
		}
	}
	return lead
}

// applyCommand is every controller's Raft apply hook. The first replica to
// apply a command commits the table and fans installs out to the store nodes
// over the fabric (where a partitioned node simply misses them — it catches
// up when it next serves a request or gets resynced after a heal). Later
// replicas applying the same entry see a non-successor epoch and only record
// completion.
func (p *Pool) applyCommand(index uint64, cmd any) {
	c, ok := cmd.(tableCommand)
	if !ok {
		return
	}
	if c.Table.Epoch == p.committed.Epoch+1 {
		p.committed = c.Table
		for _, ni := range c.Table.Nodes {
			p.net.Send(controllerNames[0], ni.Name, installMsg{table: c.Table})
		}
	}
	p.proposals[c.ID] = true
}

// propose commits a successor table through the controller ensemble,
// pumping the fabric until the command applies (retrying across leader
// changes; proposals are idempotent by ID).
func (p *Pool) propose(t *Table) error {
	p.nextID++
	cmd := tableCommand{ID: p.nextID, Table: t}
	overall := p.net.Clock.Now() + p.cfg.OpTimeout
	for p.net.Clock.Now() < overall {
		lead := p.leader()
		if lead == nil {
			p.net.RunFor(20 * time.Millisecond)
			continue
		}
		if _, _, ok := lead.Propose(cmd); !ok {
			p.net.RunFor(20 * time.Millisecond)
			continue
		}
		attempt := p.net.Clock.Now() + 2*time.Second
		for p.net.Clock.Now() < attempt {
			if p.proposals[cmd.ID] {
				p.drainInstalls()
				return nil
			}
			p.net.RunFor(5 * time.Millisecond)
		}
	}
	if p.proposals[cmd.ID] {
		p.drainInstalls()
		return nil
	}
	return ErrProposalTimeout
}

// drainInstalls pumps the fabric long enough for in-flight install messages
// to land on reachable nodes, so a membership operation returns only after
// the new epoch has propagated (a partitioned node's install is dropped and
// it catches up later).
func (p *Pool) drainInstalls() {
	p.net.RunFor(10 * time.Millisecond)
}

// span charges the control-plane time a membership operation consumed onto
// the caller's timeline: done = now + (fabric time elapsed since start).
func (p *Pool) span(now, start time.Duration) time.Duration {
	return now + (p.net.Clock.Now() - start)
}

// findActive resolves a name to its live node struct.
func (p *Pool) findActive(name string) *storeNode {
	for _, n := range p.nodes {
		if n != nil && n.name == name && !n.removed {
			return n
		}
	}
	return nil
}

// tableView places keys by a given table rather than the client's.
type tableView struct {
	*placement
	table *Table
}

func (v tableView) Targets(buf []int, key kvstore.Key) []int {
	return append(buf, v.table.Assign(key.Partition())...)
}

// placedBy is the pool's placement with keys assigned by t. Resyncing under
// it — the re-replication behind AddNode, Drain, crash Recovery and
// HealNode — gives every key a current copy on each reachable node t assigns.
func (p *Pool) placedBy(t *Table) tableView { return tableView{(*placement)(p), t} }

// Resync converges every key to the committed table's placement — the
// full-convergence pass an operator runs after healing, returning the
// completion time and copies restored.
func (p *Pool) Resync(now time.Duration) (time.Duration, int) {
	return p.set.Resync(now, p.placedBy(p.committed))
}

// AddNode grows the pool by one store node: the successor table commits
// through the controllers, then a resync copies each partition the new node
// now owns onto it. Returns the new node's name. The data path keeps its old
// cached table until a write is stale-rejected — by design, so the epoch
// handshake is genuinely exercised.
func (p *Pool) AddNode(now time.Duration) (string, time.Duration, error) {
	start := p.net.Clock.Now()
	next := p.committed.WithNode(fmt.Sprintf("node%d", p.committed.NextSlot))
	if next == nil {
		return "", now, ErrSlotSpace
	}
	added := next.Nodes[len(next.Nodes)-1]
	p.newNode(added.Slot)
	if err := p.propose(next); err != nil {
		p.nodes[added.Slot] = nil
		p.set.Drop(added.Slot)
		return "", p.span(now, start), err
	}
	copyDone, _ := p.set.Resync(now, p.placedBy(p.committed))
	done := max(p.span(now, start), copyDone)
	return added.Name, done, nil
}

// Drain removes a node gracefully: copy-then-cutover. Pages are first copied
// to their new homes under the prospective table while the node keeps
// serving; only then does the epoch commit and the node leave. A drain that
// would strand any page (its last reachable copy on the leaving node with
// nowhere to go) aborts on the old epoch. Draining an unreachable node is
// refused — crash it instead.
func (p *Pool) Drain(now time.Duration, name string) (time.Duration, error) {
	n := p.findActive(name)
	if n == nil || !p.committed.Has(name) {
		return now, fmt.Errorf("%w: %s", ErrNodeUnknown, name)
	}
	if n.crashed {
		return now, fmt.Errorf("%w: %s", ErrNodeCrashed, name)
	}
	if p.net.Partitioned(name) {
		return now, fmt.Errorf("%w: %s", ErrNodePartitioned, name)
	}
	if len(p.committed.Nodes)-1 < p.cfg.Replicas {
		return now, fmt.Errorf("%w: %d nodes, %d replicas", ErrTooFewNodes, len(p.committed.Nodes), p.cfg.Replicas)
	}
	start := p.net.Clock.Now()
	target := p.committed.WithoutNodes(name)
	copyDone, _ := p.set.Resync(now, p.placedBy(target))
	// Safety gate before cutover: the resync copied every page the leaving
	// node holds to each reachable node of its new assignment, so a page it
	// still holds alone has nowhere to go.
	if key, stranded := p.set.Sole(n.slot); stranded {
		return p.span(now, start), fmt.Errorf("%w: %v has no surviving replica", ErrDrainStranded, key)
	}
	if err := p.propose(target); err != nil {
		return p.span(now, start), err
	}
	// Cutover: the node leaves service and its copies stop counting.
	n.removed = true
	p.set.Drop(n.slot)
	done := max(p.span(now, start), copyDone)
	return done, nil
}

// Crash kills a node abruptly: its memory is gone and every mask bit it held
// is demoted immediately — reads fail over to surviving replicas with no
// error surfaced (R≥2), writes go partial until Recover re-replicates. The
// routing table is untouched: the controllers have not "noticed" yet, which
// is exactly the window the oracle probes.
func (p *Pool) Crash(now time.Duration, name string) error {
	n := p.findActive(name)
	if n == nil || !p.committed.Has(name) {
		return fmt.Errorf("%w: %s", ErrNodeUnknown, name)
	}
	if n.crashed {
		return fmt.Errorf("%w: %s already crashed", ErrNodeCrashed, name)
	}
	n.crashed = true
	p.set.Drop(n.slot)
	return nil
}

// Recover is the controllers noticing crashed nodes: a successor table
// without them commits, and a resync re-replicates every under-replicated
// partition from the surviving copies. Returns the completion time and the
// number of copies restored.
func (p *Pool) Recover(now time.Duration) (time.Duration, int, error) {
	var names []string
	for _, n := range p.nodes {
		if n != nil && n.crashed && !n.removed && p.committed.Has(n.name) {
			names = append(names, n.name)
		}
	}
	if len(names) == 0 {
		return now, 0, nil
	}
	start := p.net.Clock.Now()
	target := p.committed.WithoutNodes(names...)
	if err := p.propose(target); err != nil {
		return p.span(now, start), 0, err
	}
	for _, name := range names {
		if n := p.findActive(name); n != nil {
			n.removed = true
		}
	}
	copyDone, copied := p.set.Resync(now, p.placedBy(p.committed))
	done := max(p.span(now, start), copyDone)
	return done, copied, nil
}

// PartitionNode cuts a node off the network: the data path skips it, table
// installs are dropped on the floor, and its pages go dark but are NOT lost.
func (p *Pool) PartitionNode(name string) error {
	if p.findActive(name) == nil {
		return fmt.Errorf("%w: %s", ErrNodeUnknown, name)
	}
	p.net.Partition(name)
	return nil
}

// HealNode reconnects a partitioned node and resyncs: writes it slept
// through demoted its copies, so the sweep restores it as a current replica
// (its stale copies were never servable — the index is the ground truth).
func (p *Pool) HealNode(now time.Duration, name string) (time.Duration, error) {
	n := p.findActive(name)
	if n == nil {
		return now, fmt.Errorf("%w: %s", ErrNodeUnknown, name)
	}
	p.net.Heal(name)
	n.epoch = max(n.epoch, p.committed.Epoch)
	done, _ := p.set.Resync(now, p.placedBy(p.committed))
	return done, nil
}
