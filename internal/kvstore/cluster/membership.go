package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/zookeeper"
)

// install is the pool's watch on the table znode: it fires at the first
// controller's apply of each committed table, in log order, including a
// table whose proposal timed out and committed later. Membership follows it:
// a node it no longer lists is removed and its copies stop counting, and a
// listed member without a node gets one. Each member is then sent the table
// (a partitioned node misses it and catches up when it next serves a request
// or is resynced after a heal).
func (p *Pool) install(data []byte, version uint64) {
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		panic(fmt.Sprintf("cluster: table znode holds %q: %v", data, err)) // only the pool writes it
	}
	p.committed = NewTable(version, t.Replicas, t.Nodes, t.NextSlot)
	for _, n := range p.nodes {
		if n != nil && !n.removed && !p.committed.Has(n.name) {
			n.removed = true
			p.owed = p.owed || n.crashed
			p.set.Drop(n.slot)
		}
	}
	for _, ni := range p.committed.Nodes {
		if ni.Slot >= len(p.nodes) || p.nodes[ni.Slot] == nil {
			p.newNode(ni.Name, ni.Slot)
		}
		p.net.Send(controllerNames[0], ni.Name, p.committed)
	}
}

// encodeTable is a table's znode payload: epoch, replicas, next slot and
// members. Every reader derives the assignment with NewTable.
func encodeTable(t *Table) []byte {
	data, _ := json.Marshal(t) // strings and ints always marshal
	return data
}

// installDrain is how long a commit pumps the fabric after its watch fired:
// long enough for the installs to land on every reachable node.
const installDrain = 10 * time.Millisecond

// commit publishes t, the committed table's successor, as a compare-and-set
// of the table znode on the committed epoch; nil means the watch installed
// it. A proposal that timed out may still commit later, and then a successor
// built from the old epoch loses the compare-and-set.
func (p *Pool) commit(t *Table) error {
	switch _, err := p.zk.Set(tablePath, encodeTable(t), p.committed.Epoch); {
	case errors.Is(err, zookeeper.ErrTimeout):
		return ErrProposalTimeout
	case err != nil:
		return fmt.Errorf("cluster: commit epoch %d: %w", t.Epoch, err)
	}
	p.net.RunFor(installDrain)
	return nil
}

// span charges the control-plane time a membership operation consumed onto
// the caller's timeline: done = now + (fabric time elapsed since start).
func (p *Pool) span(now, start time.Duration) time.Duration {
	return now + (p.net.Clock.Now() - start)
}

// findActive resolves a name to its node while the committed table lists it.
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
	if err := p.commit(next); err != nil {
		return "", p.span(now, start), err
	}
	copyDone, _ := p.set.Resync(now, p.placedBy(p.committed))
	return next.Nodes[len(next.Nodes)-1].Name, max(p.span(now, start), copyDone), nil
}

// Drain removes a node gracefully: copy-then-cutover. Pages are first copied
// to their new homes under the prospective table while the node keeps
// serving; only then does the epoch commit and the node leave. A drain that
// would strand any page (its last reachable copy on the leaving node with
// nowhere to go) aborts on the old epoch. Draining an unreachable node is
// refused — crash it instead.
func (p *Pool) Drain(now time.Duration, name string) (time.Duration, error) {
	n := p.findActive(name)
	if n == nil {
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
	// Cutover: the commit's watch takes the node out of service.
	if err := p.commit(target); err != nil {
		return p.span(now, start), err
	}
	return max(p.span(now, start), copyDone), nil
}

// Crash kills a node abruptly: its memory is gone and every mask bit it held
// is demoted immediately — reads fail over to surviving replicas with no
// error surfaced (R≥2), writes go partial until Recover re-replicates. The
// routing table is untouched: the controllers have not "noticed" yet, which
// is exactly the window the oracle probes.
func (p *Pool) Crash(now time.Duration, name string) error {
	n := p.findActive(name)
	if n == nil {
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
// partition from the surviving copies; a crashed node whose table committed
// after its Recover timed out needs only the resync. Returns the completion
// time and the number of copies restored.
func (p *Pool) Recover(now time.Duration) (time.Duration, int, error) {
	var names []string
	for _, n := range p.nodes {
		if n != nil && n.crashed && !n.removed {
			names = append(names, n.name)
		}
	}
	if len(names) == 0 && !p.owed {
		return now, 0, nil
	}
	start := p.net.Clock.Now()
	if len(names) > 0 {
		if err := p.commit(p.committed.WithoutNodes(names...)); err != nil {
			return p.span(now, start), 0, err
		}
	}
	p.owed = false
	copyDone, copied := p.set.Resync(now, p.placedBy(p.committed))
	return max(p.span(now, start), copyDone), copied, nil
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
