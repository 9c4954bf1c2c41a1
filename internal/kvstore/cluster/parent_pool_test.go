package cluster

// parentPool is a test-side copy of the cluster pool as it was before its
// data path moved onto replicated.Set: its own page maps and devices per
// node, its own version index, its own routing, failover, repair and resync.
// TestReplicaSetMatchesParent runs it in lockstep with Pool. The copy is
// verbatim but for renamed types and the edits marked "MODEL:", each a
// deliberate difference between the parent and the shared core.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/raft"
	"fluidmem/internal/simnet"
	"fluidmem/internal/zookeeper"
)

// parentNode is one remote-memory server: a page map behind read/write
// service-time devices, plus its installed view of the routing epoch.
type parentNode struct {
	name  string
	slot  int
	pages map[kvstore.Key][]byte
	read  *clock.Device
	write *clock.Device
	// epoch is the newest table epoch the node has installed (via a
	// controller install message over simnet, or a catch-up during an op).
	epoch   uint64
	crashed bool
	removed bool
}

func (n *parentNode) bit() uint64 { return 1 << uint(n.slot) }

// set copies page into the node's map, reusing the existing buffer on
// overwrite so steady-state writeback traffic allocates nothing. Buffers are
// never shared between nodes (membership transfers copy, MultiPut hands the
// caller's buffer to one node only), so reuse is safe.
func (n *parentNode) set(key kvstore.Key, page []byte) {
	if old, ok := n.pages[key]; ok {
		copy(old, page)
		return
	}
	n.pages[key] = append([]byte(nil), page...)
}

// parentSortInts sorts a tiny slice in place without the interface boxing
// sort.Ints may incur; slot lists are bounded by maxSlots.
func parentSortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

// parentPool is the sharded, replicated remote-memory pool. It implements
// kvstore.Store: the data path routes each key by its 12-bit partition
// against the client's cached table and maintains an authoritative per-key
// version mask (which node slots hold the CURRENT version), exactly like the
// replicated wrapper — the index, not a node, decides existence and serving
// eligibility. The control plane is a fixed 3-controller Raft ensemble (the
// paper's ZooKeeper pattern: a small consensus group governs a dynamic
// serving tier); membership changes commit a successor table through it and
// install the new epoch on store nodes over the simulated fabric.
//
// The client's cached table is deliberately NOT refreshed when a change
// commits: it discovers new epochs the way a real distributed client does,
// by having a write rejected with ErrStaleEpoch — which refreshes the cache
// and surfaces a transient error for the resilience layer to retry.
type parentPool struct {
	cfg Config
	net *simnet.Network

	ctrls     []*raft.Node
	committed *Table
	client    *Table
	proposals map[uint64]error
	nextID    uint64
	owed      bool

	// nodes is indexed by slot; entries stay after removal (reachable() is
	// the liveness gate) so mask bits always resolve.
	nodes []*parentNode

	// keys is the authoritative live-key index: the bitmask of node slots
	// holding each key's current version.
	keys map[kvstore.Key]uint64

	stats kvstore.Stats
	ctr   Counters

	// Data-plane scratch, reused across operations. The pool is single-
	// threaded like the rest of the simulator, so one set of buffers
	// suffices and steady-state reads and writeback flushes allocate
	// nothing (DESIGN.md §14).
	orderScratch  []int
	targetScratch []*parentNode
	mpNodes       []*parentNode // flat arena of per-key targets, in key order
	mpCounts      []int         // targets per key, indexes mpNodes
	mpSlots       []int         // distinct slots touched by the batch
	mpAll         []*parentNode // distinct target nodes, slot order
	mpGroups      [maxSlots]int
}

var _ kvstore.Store = (*parentPool)(nil)

// parentInstallMsg carries a committed table from a controller to a store node.
type parentInstallMsg struct {
	table *Table
}

// parentTableCommand is the Raft log entry committing a successor table.
type parentTableCommand struct {
	ID    uint64
	Table *Table
}

// parentOpTimeout bounds one membership proposal (virtual time).
const parentOpTimeout = 30 * time.Second

// New builds a pool with cfg.Nodes store nodes, elects the controller
// ensemble, and commits the initial table through Raft.
func newParentPool(cfg Config) (*parentPool, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: %d nodes < 1", cfg.Nodes)
	}
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("cluster: %d replicas < 1", cfg.Replicas)
	}
	p := &parentPool{
		cfg:       cfg,
		net:       simnet.New(cfg.ControlLatency, cfg.Seed),
		committed: NewTable(0, cfg.Replicas, nil, 0),
		proposals: make(map[uint64]error),
		keys:      make(map[kvstore.Key]uint64),
	}
	for i, id := range controllerNames {
		p.ctrls = append(p.ctrls, raft.NewNode(raft.Config{
			ID:    id,
			Peers: controllerNames,
			Seed:  cfg.Seed + uint64(i),
		}, p.net, p.applyCommand))
	}
	var infos []NodeInfo
	for i := 0; i < cfg.Nodes; i++ {
		n := p.newNode(i)
		infos = append(infos, NodeInfo{Name: n.name, Slot: n.slot})
	}
	// Elect, then commit the initial table so even epoch 1 is Raft-ordered.
	deadline := p.net.Clock.Now() + time.Minute
	for p.leader() == nil && p.net.Clock.Now() < deadline {
		p.net.RunFor(10 * time.Millisecond)
	}
	if p.leader() == nil {
		return nil, errors.New("cluster: controller election failed")
	}
	if err := p.propose(NewTable(1, cfg.Replicas, infos, cfg.Nodes)); err != nil {
		return nil, err
	}
	p.client = p.committed
	return p, nil
}

// newNode creates a store node in the given slot and registers it on the
// fabric for table installs.
func (p *parentPool) newNode(slot int) *parentNode {
	n := &parentNode{
		name:  fmt.Sprintf("node%d", slot),
		slot:  slot,
		pages: make(map[kvstore.Key][]byte),
		read:  clock.NewDevice(p.cfg.ReadLatency, p.cfg.Seed+uint64(slot)*2+11),
		write: clock.NewDevice(p.cfg.WriteLatency, p.cfg.Seed+uint64(slot)*2+12),
	}
	for len(p.nodes) <= slot {
		p.nodes = append(p.nodes, nil)
	}
	p.nodes[slot] = n
	p.net.Register(n.name, func(now time.Duration, msg simnet.Message) {
		if n.crashed || n.removed {
			return
		}
		if im, ok := msg.Payload.(parentInstallMsg); ok && im.table.Epoch > n.epoch {
			n.epoch = im.table.Epoch
		}
	})
	return n
}

// Network exposes the fabric for fault injection (tests, oracle, daemon).
func (p *parentPool) Network() *simnet.Network { return p.net }

// Committed reports the latest Raft-committed table.
func (p *parentPool) Committed() *Table { return p.committed }

// ClientTable reports the data path's cached (possibly stale) table.
func (p *parentPool) ClientTable() *Table { return p.client }

// ClusterStats snapshots the cluster-specific counters.
func (p *parentPool) ClusterStats() Counters {
	c := p.ctr
	c.Epoch = p.committed.Epoch
	c.Nodes = len(p.committed.Nodes)
	c.Replicas = p.cfg.Replicas
	return c
}

// NodeNames reports the active members of the committed table, slot order.
func (p *parentPool) NodeNames() []string {
	out := make([]string, 0, len(p.committed.Nodes))
	for _, n := range p.committed.Nodes {
		out = append(out, n.Name)
	}
	return out
}

// Name implements kvstore.Store.
func (p *parentPool) Name() string {
	return fmt.Sprintf("cluster(n=%d,r=%d)", len(p.committed.Nodes), p.cfg.Replicas)
}

// slotNode resolves a mask bit or assignment slot to its node.
func (p *parentPool) slotNode(slot int) *parentNode {
	if slot < 0 || slot >= len(p.nodes) {
		return nil
	}
	return p.nodes[slot]
}

// reachable reports whether the data path may talk to a node right now.
func (p *parentPool) reachable(n *parentNode) bool {
	return n != nil && !n.crashed && !n.removed && !p.net.Partitioned(n.name)
}

// refresh re-reads the committed table into the client cache.
func (p *parentPool) refresh() {
	if p.client != p.committed {
		p.client = p.committed
		p.ctr.Refreshes++
	}
}

// checkEpoch validates a write's routing against every target node before
// anything mutates, so a stale-epoch reject is always all-or-nothing. A node
// behind the client's epoch catches up (it missed an install — the fabric
// drops messages); a node ahead rejects, which refreshes the client cache
// and returns the transient ErrStaleEpoch for the resilience layer to retry
// against the new placement.
func (p *parentPool) checkEpoch(targets []*parentNode) error {
	for _, n := range targets {
		if n.epoch < p.client.Epoch {
			n.epoch = p.client.Epoch
		}
		if n.epoch > p.client.Epoch {
			p.ctr.StaleRejects++
			p.refresh()
			return ErrStaleEpoch
		}
	}
	return nil
}

// appendWriteTargets resolves a key's reachable assignment nodes under the
// client table, appending them to buf (callers pass reusable scratch so the
// hot path allocates nothing). It returns the extended slice plus the full
// assignment width, which the caller compares against the appended count to
// detect partial writes. If the cached table routes only to dark nodes there
// is nobody left to bounce ErrStaleEpoch, so the client would retry the same
// dead placement forever; in that case it refreshes from the committed table
// and resolves once more — an empty result then means the partition is
// unreachable under the *current* placement, a genuinely transient condition.
func (p *parentPool) appendWriteTargets(buf []*parentNode, key kvstore.Key) ([]*parentNode, int) {
	start := len(buf)
	for {
		slots := p.client.Assign(key.Partition())
		for _, s := range slots {
			if n := p.slotNode(s); p.reachable(n) {
				buf = append(buf, n)
			}
		}
		if len(buf) > start || p.client == p.committed {
			return buf, len(slots)
		}
		p.refresh()
	}
}

// Put implements kvstore.Store: write to every reachable assignment node,
// complete with the slowest. Replacing the mask wholesale demotes every
// replica that missed the overwrite, so stale versions can never serve.
func (p *parentPool) Put(now time.Duration, key kvstore.Key, page []byte) (time.Duration, error) {
	if err := kvstore.ValidatePage(page); err != nil {
		return now, err
	}
	p.stats.Puts++
	targets, assigned := p.appendWriteTargets(p.targetScratch[:0], key)
	p.targetScratch = targets[:0]
	if len(targets) == 0 {
		return now, fmt.Errorf("%w: partition %d", ErrUnavailable, key.Partition())
	}
	if err := p.checkEpoch(targets); err != nil {
		return now, err
	}
	if len(targets) < assigned {
		p.ctr.PartialPuts++
	}
	latest := now
	var mask uint64
	for _, n := range targets {
		n.set(key, page)
		if done := n.write.Submit(now); done > latest {
			latest = done
		}
		mask |= n.bit()
	}
	p.keys[key] = mask
	p.stats.BytesStored = uint64(len(p.keys)) * kvstore.PageSize
	return latest, nil
}

// MultiPut implements kvstore.Store: one amortised batch per target node.
// Validation and reachability are checked for the whole batch before any
// byte lands, so a rejected batch leaves no partial state.
func (p *parentPool) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	if len(keys) != len(pages) {
		return now, kvstore.ErrBadValue
	}
	for _, page := range pages {
		if err := kvstore.ValidatePage(page); err != nil {
			return now, err
		}
	}
	p.stats.MultiPuts++
	p.stats.Puts += uint64(len(keys))
	if len(keys) == 0 {
		return now, nil
	}
	// Plan the whole batch first: per-key targets (a flat arena carved by
	// per-key counts), per-slot groups. All planning state is pool-level
	// scratch reused across batches, so a steady-state writeback flush
	// allocates nothing.
	p.mpNodes = p.mpNodes[:0]
	p.mpCounts = p.mpCounts[:0]
	p.mpSlots = p.mpSlots[:0]
	for i := range p.mpGroups {
		p.mpGroups[i] = 0
	}
	partial := false
	for _, key := range keys {
		start := len(p.mpNodes)
		buf, assigned := p.appendWriteTargets(p.mpNodes, key)
		p.mpNodes = buf
		count := len(buf) - start
		if count == 0 {
			return now, fmt.Errorf("%w: partition %d", ErrUnavailable, key.Partition())
		}
		if count < assigned {
			partial = true
		}
		p.mpCounts = append(p.mpCounts, count)
		for _, n := range buf[start:] {
			if p.mpGroups[n.slot] == 0 {
				p.mpSlots = append(p.mpSlots, n.slot)
			}
			p.mpGroups[n.slot]++
		}
	}
	parentSortInts(p.mpSlots)
	p.mpAll = p.mpAll[:0]
	for _, s := range p.mpSlots {
		p.mpAll = append(p.mpAll, p.slotNode(s))
	}
	if err := p.checkEpoch(p.mpAll); err != nil {
		return now, err
	}
	if partial {
		p.ctr.PartialPuts++
	}
	latest := now
	for _, s := range p.mpSlots {
		if done := p.slotNode(s).write.SubmitN(now, p.mpGroups[s]); done > latest {
			latest = done
		}
	}
	off := 0
	for i, key := range keys {
		last := off + p.mpCounts[i] - 1
		var mask uint64
		for _, n := range p.mpNodes[off:last] {
			n.set(key, pages[i])
			mask |= n.bit()
		}
		// Every target but the last copied; the last keeps the caller's buffer
		// and hands back the version it held. A live key it holds no version
		// of (placement moved) must not come back nil, so it copies too.
		n := p.mpNodes[last]
		// MODEL: the last target always keeps the caller's buffer, and a key
		// in the index it has no version of to hand back gets a fresh page —
		// replicated's rule, since the shared core cannot look inside a member
		// first. The parent copied to that target instead and handed back the
		// caller's own buffer, or nil for a key whose mask was empty.
		old := n.pages[key]
		n.pages[key], pages[i] = pages[i], old
		if _, live := p.keys[key]; live && old == nil {
			pages[i] = make([]byte, kvstore.PageSize)
		}
		off = last + 1
		p.keys[key] = mask | n.bit()
	}
	p.stats.BytesStored = uint64(len(p.keys)) * kvstore.PageSize
	return latest, nil
}

// readOrder lists the slots to try for a key: the client table's assignment
// (preferred replica first), then any remaining mask holders ascending — so
// a read survives even when placement has drifted from the cached table.
// The result aliases pool-level scratch: valid until the next readOrder call.
func (p *parentPool) readOrder(key kvstore.Key, mask uint64) []int {
	order := p.orderScratch[:0]
	seen := uint64(0)
	for _, s := range p.client.Assign(key.Partition()) {
		order = append(order, s)
		seen |= 1 << uint(s)
	}
	for s := 0; s < maxSlots; s++ {
		if mask&(1<<uint(s)) != 0 && seen&(1<<uint(s)) == 0 {
			order = append(order, s)
		}
	}
	p.orderScratch = order
	return order
}

// getKey is the failover read sweep: consult only mask holders (the index,
// not the node, decides who may serve), preferred replica first. Reads are
// deliberately not epoch-checked — serving a read needs only the current
// version, which the mask guarantees, so a crash with R≥2 is absorbed by a
// surviving replica with no error surfaced even without the retry layer.
func (p *parentPool) getKey(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
	mask, live := p.keys[key]
	if !live {
		return nil, now, kvstore.ErrNotFound
	}
	t := now
	for i, slot := range p.readOrder(key, mask) {
		n := p.slotNode(slot)
		if !p.reachable(n) || mask&(1<<uint(slot)) == 0 {
			continue
		}
		page, held := n.pages[key]
		if !held {
			// The index says current but the node lost it; demote the copy
			// so repair can restore it.
			mask &^= 1 << uint(slot)
			p.keys[key] = mask
			continue
		}
		done := n.read.Submit(t)
		if i != 0 {
			p.ctr.Failovers++
		}
		p.repair(done, key, page, p.keys[key])
		// Zero-copy read per the Store ownership contract: the caller gets
		// a reference to the serving node's buffer.
		return page, done, nil
	}
	return nil, t, fmt.Errorf("%w: %v", ErrUnavailable, key)
}

// repair back-fills key onto reachable assignment nodes lacking the current
// version. Issued at the read's completion time and not awaited — off the
// faulting guest's critical path, like the monitor's writeback.
func (p *parentPool) repair(now time.Duration, key kvstore.Key, page []byte, mask uint64) {
	for _, slot := range p.client.Assign(key.Partition()) {
		n := p.slotNode(slot)
		if !p.reachable(n) || mask&(1<<uint(slot)) != 0 {
			continue
		}
		n.set(key, page)
		n.write.Submit(now)
		p.keys[key] |= n.bit()
		p.ctr.ReadRepairs++
	}
}

// Get implements kvstore.Store.
func (p *parentPool) Get(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
	p.stats.Gets++
	data, done, err := p.getKey(now, key)
	if errors.Is(err, kvstore.ErrNotFound) {
		p.stats.Misses++
	}
	return data, done, err
}

// MultiGet implements kvstore.Store: each live key is grouped under its
// preferred serving node and fetched in one amortised batch per node; keys
// the batch path cannot serve fall back to the per-key failover sweep. A key
// absent from the index yields a nil entry (a miss is not an error); any
// failure no replica could mask fails the whole batch.
func (p *parentPool) MultiGet(now time.Duration, keys []kvstore.Key) ([][]byte, time.Duration, error) {
	p.stats.MultiGets++
	p.stats.Gets += uint64(len(keys))
	out := make([][]byte, len(keys))
	if len(keys) == 0 {
		return out, now, nil
	}
	groups := make(map[int][]int)
	var order []int
	var fallback []int
	// MODEL: a failover per key served by other than the first of its read
	// order, as Get counts one. The parent counted none in a batch.
	preferred := make([]bool, len(keys))
	for idx, key := range keys {
		mask, live := p.keys[key]
		if !live {
			p.stats.Misses++
			continue
		}
		serving := -1
		for pos, slot := range p.readOrder(key, mask) {
			n := p.slotNode(slot)
			if !p.reachable(n) || mask&(1<<uint(slot)) == 0 {
				continue
			}
			if _, held := n.pages[key]; !held {
				p.keys[key] &^= 1 << uint(slot)
				continue
			}
			serving = slot
			preferred[idx] = pos == 0
			break
		}
		if serving < 0 {
			fallback = append(fallback, idx)
			continue
		}
		if _, seen := groups[serving]; !seen {
			order = append(order, serving)
		}
		groups[serving] = append(groups[serving], idx)
	}
	latest := now
	for _, slot := range order {
		n := p.slotNode(slot)
		idxs := groups[slot]
		done := n.read.SubmitN(now, len(idxs))
		if done > latest {
			latest = done
		}
		for _, idx := range idxs {
			key := keys[idx]
			page := n.pages[key]
			if !preferred[idx] {
				p.ctr.Failovers++
			}
			out[idx] = page
			p.repair(done, key, page, p.keys[key])
		}
	}
	for _, idx := range fallback {
		data, done, err := p.getKey(latest, keys[idx])
		if done > latest {
			latest = done
		}
		if err != nil {
			return nil, latest, fmt.Errorf("cluster: multiget key %v: %w", keys[idx], err)
		}
		out[idx] = data
	}
	return out, latest, nil
}

// StartGet implements kvstore.Store: the split read issues the failover
// sweep synchronously and hands the caller a PendingGet whose ReadyAt is the
// sweep's completion time.
func (p *parentPool) StartGet(now time.Duration, key kvstore.Key) kvstore.PendingGet {
	data, done, err := p.Get(now, key)
	return kvstore.PendingGet{Key: key, Data: data, ReadyAt: done, Err: err}
}

// Delete implements kvstore.Store. Unlike a write, a delete that reaches no
// node mutates nothing — the key stays in the index and the error is
// transient — so "error" always means "nothing happened" and a resilient
// retry is safe. On success the key leaves the index first; a stale copy on
// an unreachable node can never resurrect because only the index serves.
func (p *parentPool) Delete(now time.Duration, key kvstore.Key) (time.Duration, error) {
	p.stats.Deletes++
	mask, live := p.keys[key]
	// Targets: the assignment plus any mask holder with a copy to scrub.
	// Like writeTargets, a resolution that reaches nobody under a stale
	// cached table refreshes and resolves once more before giving up.
	var targets []*parentNode
	for {
		targetSet := make(map[int]bool)
		var slots []int
		for _, s := range p.client.Assign(key.Partition()) {
			if !targetSet[s] {
				targetSet[s] = true
				slots = append(slots, s)
			}
		}
		for s := 0; s < maxSlots; s++ {
			if mask&(1<<uint(s)) != 0 && !targetSet[s] {
				targetSet[s] = true
				slots = append(slots, s)
			}
		}
		sort.Ints(slots)
		targets = make([]*parentNode, 0, len(slots))
		for _, s := range slots {
			if n := p.slotNode(s); p.reachable(n) {
				targets = append(targets, n)
			}
		}
		if len(targets) > 0 || p.client == p.committed {
			break
		}
		p.refresh()
	}
	if live && len(targets) == 0 {
		return now, fmt.Errorf("%w: delete %v", ErrUnavailable, key)
	}
	if err := p.checkEpoch(targets); err != nil {
		return now, err
	}
	delete(p.keys, key)
	latest := now
	for _, n := range targets {
		delete(n.pages, key)
		if done := n.write.Submit(now); done > latest {
			latest = done
		}
	}
	p.stats.BytesStored = uint64(len(p.keys)) * kvstore.PageSize
	return latest, nil
}

// Stats implements kvstore.Store.
func (p *parentPool) Stats() kvstore.Stats { return p.stats }

// Len reports the number of live keys in the authoritative index.
func (p *parentPool) Len() int { return len(p.keys) }

// leader returns the highest-term live controller leader, if any.
func (p *parentPool) leader() *raft.Node {
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
func (p *parentPool) applyCommand(index uint64, cmd any) {
	c, ok := cmd.(parentTableCommand)
	if !ok {
		return
	}
	// MODEL: membership follows every committed table, whoever is waiting
	// for it: the first replica to apply a command decides it, a table built
	// from an epoch that has moved on fails its proposer, and a committed
	// table's departed nodes are removed and its listed members get a node
	// (a crashed node's departure owes Recover a resync). The parent recorded
	// completion at every replica, reported a stale table as committed, and
	// left membership to the proposer, which a timed-out proposal never saw
	// commit.
	if _, seen := p.proposals[c.ID]; seen {
		return
	}
	if c.Table.Epoch != p.committed.Epoch+1 {
		p.proposals[c.ID] = fmt.Errorf("cluster: commit epoch %d: %w", c.Table.Epoch, zookeeper.ErrBadVersion)
		return
	}
	p.committed = c.Table
	for _, n := range p.nodes {
		if n != nil && !n.removed && !c.Table.Has(n.name) {
			n.removed = true
			p.owed = p.owed || n.crashed
			n.pages = make(map[kvstore.Key][]byte)
			p.clearSlotBits(n.slot)
		}
	}
	for _, ni := range c.Table.Nodes {
		if p.slotNode(ni.Slot) == nil {
			p.newNode(ni.Slot)
		}
		p.net.Send(controllerNames[0], ni.Name, parentInstallMsg{table: c.Table})
	}
	p.proposals[c.ID] = nil
}

// propose commits a successor table through the controller ensemble,
// pumping the fabric until the command applies (retrying across leader
// changes; proposals are idempotent by ID).
func (p *parentPool) propose(t *Table) error {
	p.nextID++
	cmd := parentTableCommand{ID: p.nextID, Table: t}
	overall := p.net.Clock.Now() + parentOpTimeout
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
			if err, done := p.proposals[cmd.ID]; done {
				if err != nil {
					return err
				}
				return p.drainInstalls()
			}
			p.net.RunFor(5 * time.Millisecond)
		}
	}
	if err, done := p.proposals[cmd.ID]; done {
		if err != nil {
			return err
		}
		return p.drainInstalls()
	}
	return ErrProposalTimeout
}

// drainInstalls pumps the fabric long enough for in-flight install messages
// to land on reachable nodes, so a membership operation returns only after
// the new epoch has propagated (a partitioned node's install is dropped and
// it catches up later).
func (p *parentPool) drainInstalls() error {
	p.net.RunFor(10 * time.Millisecond)
	return nil
}

// span charges the control-plane time a membership operation consumed onto
// the caller's timeline: done = now + (fabric time elapsed since start).
func (p *parentPool) span(now, start time.Duration) time.Duration {
	return now + (p.net.Clock.Now() - start)
}

// findActive resolves a name to its live node struct.
func (p *parentPool) findActive(name string) *parentNode {
	for _, n := range p.nodes {
		if n != nil && n.name == name && !n.removed {
			return n
		}
	}
	return nil
}

// sortedKeys snapshots the index keys in ascending order, so every sweep is
// deterministic regardless of map iteration.
func (p *parentPool) sortedKeys() []kvstore.Key {
	keys := make([]kvstore.Key, 0, len(p.keys))
	for key := range p.keys {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// clearSlotBits demotes a slot from every mask — the node's copies are gone
// (crash) or about to be (drain cutover). Keys whose mask reaches zero stay
// in the index: the page may still exist on an unreachable holder, and reads
// report the transient ErrUnavailable rather than a false ErrNotFound.
func (p *parentPool) clearSlotBits(slot int) {
	bit := uint64(1) << uint(slot)
	for key, mask := range p.keys {
		if mask&bit != 0 {
			p.keys[key] = mask &^ bit
		}
	}
}

// resyncTo is the generalized re-replication primitive behind AddNode,
// Drain, crash Recovery, and HealNode: sweep the index (sorted, so the pass
// is deterministic) and ensure every key has a current copy on each
// reachable node of its target assignment, copying from the first reachable
// current holder. Copies are batched per (source, destination) pair and
// amortised on both devices. Keys whose holders are all unreachable are
// skipped — a later heal-plus-resync converges them.
func (p *parentPool) resyncTo(now time.Duration, target *Table) time.Duration {
	type pair struct{ src, dst int }
	moves := make(map[pair][]kvstore.Key)
	var order []pair
	for _, key := range p.sortedKeys() {
		mask := p.keys[key]
		src := -1
		for s := 0; s < maxSlots; s++ {
			if mask&(1<<uint(s)) == 0 {
				continue
			}
			if n := p.slotNode(s); p.reachable(n) {
				if _, held := n.pages[key]; held {
					src = s
					break
				}
			}
		}
		if src < 0 {
			continue
		}
		for _, want := range target.Assign(key.Partition()) {
			if mask&(1<<uint(want)) != 0 {
				continue
			}
			n := p.slotNode(want)
			if !p.reachable(n) {
				continue
			}
			pr := pair{src: src, dst: want}
			if _, seen := moves[pr]; !seen {
				order = append(order, pr)
			}
			moves[pr] = append(moves[pr], key)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].src != order[j].src {
			return order[i].src < order[j].src
		}
		return order[i].dst < order[j].dst
	})
	latest := now
	for _, pr := range order {
		keys := moves[pr]
		src, dst := p.slotNode(pr.src), p.slotNode(pr.dst)
		readDone := src.read.SubmitN(now, len(keys))
		writeDone := dst.write.SubmitN(readDone, len(keys))
		if writeDone > latest {
			latest = writeDone
		}
		for _, key := range keys {
			page, held := src.pages[key]
			if !held {
				continue
			}
			dst.pages[key] = append([]byte(nil), page...)
			p.keys[key] |= dst.bit()
			p.ctr.Rereplicated++
		}
	}
	return latest
}

// Resync converges every key to the committed table's placement — the
// full-convergence pass an operator runs after healing, returning the
// completion time and copies restored.
func (p *parentPool) Resync(now time.Duration) (time.Duration, int) {
	before := p.ctr.Rereplicated
	done := p.resyncTo(now, p.committed)
	return done, int(p.ctr.Rereplicated - before)
}

// AddNode grows the pool by one store node: the successor table commits
// through the controllers, then a resync copies each partition the new node
// now owns onto it. Returns the new node's name. The data path keeps its old
// cached table until a write is stale-rejected — by design, so the epoch
// handshake is genuinely exercised.
func (p *parentPool) AddNode(now time.Duration) (string, time.Duration, error) {
	start := p.net.Clock.Now()
	next := p.committed.WithNode(fmt.Sprintf("node%d", p.committed.NextSlot))
	if next == nil {
		return "", now, ErrSlotSpace
	}
	added := next.Nodes[len(next.Nodes)-1]
	// MODEL: the commit creates the node (applyCommand). The parent created
	// it first and deleted it again when the proposal failed.
	if err := p.propose(next); err != nil {
		return "", p.span(now, start), err
	}
	copyDone := p.resyncTo(now, p.committed)
	done := p.span(now, start)
	if copyDone > done {
		done = copyDone
	}
	return added.Name, done, nil
}

// Drain removes a node gracefully: copy-then-cutover. Pages are first copied
// to their new homes under the prospective table while the node keeps
// serving; only then does the epoch commit and the node leave. A drain that
// would strand any page (its last reachable copy on the leaving node with
// nowhere to go) aborts on the old epoch. Draining an unreachable node is
// refused — crash it instead.
func (p *parentPool) Drain(now time.Duration, name string) (time.Duration, error) {
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
	copyDone := p.resyncTo(now, target)
	// Safety gate before cutover: every page the leaving node holds must
	// survive its departure on some reachable replica.
	for _, key := range p.sortedKeys() {
		mask := p.keys[key]
		if mask&n.bit() == 0 || mask&^n.bit() != 0 {
			continue
		}
		rescued := false
		for _, want := range target.Assign(key.Partition()) {
			d := p.slotNode(want)
			if !p.reachable(d) {
				continue
			}
			d.pages[key] = append([]byte(nil), n.pages[key]...)
			d.write.Submit(copyDone)
			p.keys[key] |= d.bit()
			p.ctr.Rereplicated++
			rescued = true
			break
		}
		if !rescued {
			return p.span(now, start), fmt.Errorf("%w: %v has no surviving replica", ErrDrainStranded, key)
		}
	}
	if err := p.propose(target); err != nil {
		return p.span(now, start), err
	}
	// Cutover: the node leaves service and its copies stop counting.
	n.removed = true
	n.pages = make(map[kvstore.Key][]byte)
	p.clearSlotBits(n.slot)
	done := p.span(now, start)
	if copyDone > done {
		done = copyDone
	}
	return done, nil
}

// Crash kills a node abruptly: its memory is gone and every mask bit it held
// is demoted immediately — reads fail over to surviving replicas with no
// error surfaced (R≥2), writes go partial until Recover re-replicates. The
// routing table is untouched: the controllers have not "noticed" yet, which
// is exactly the window the oracle probes.
func (p *parentPool) Crash(now time.Duration, name string) error {
	n := p.findActive(name)
	if n == nil || !p.committed.Has(name) {
		return fmt.Errorf("%w: %s", ErrNodeUnknown, name)
	}
	if n.crashed {
		return fmt.Errorf("%w: %s already crashed", ErrNodeCrashed, name)
	}
	n.crashed = true
	n.pages = make(map[kvstore.Key][]byte)
	p.clearSlotBits(n.slot)
	return nil
}

// Recover is the controllers noticing crashed nodes: a successor table
// without them commits, and a resync re-replicates every under-replicated
// partition from the surviving copies. Returns the completion time and the
// number of copies restored.
func (p *parentPool) Recover(now time.Duration) (time.Duration, int, error) {
	var names []string
	for _, n := range p.nodes {
		if n != nil && n.crashed && !n.removed && p.committed.Has(n.name) {
			names = append(names, n.name)
		}
	}
	// MODEL: a resync owed for a crashed node whose table committed after
	// its Recover timed out runs even with no node left to remove. The parent
	// did nothing without a crashed member of the table.
	if len(names) == 0 && !p.owed {
		return now, 0, nil
	}
	start := p.net.Clock.Now()
	if len(names) > 0 {
		target := p.committed.WithoutNodes(names...)
		if err := p.propose(target); err != nil {
			return p.span(now, start), 0, err
		}
	}
	p.owed = false
	for _, name := range names {
		if n := p.findActive(name); n != nil {
			n.removed = true
		}
	}
	before := p.ctr.Rereplicated
	copyDone := p.resyncTo(now, p.committed)
	done := p.span(now, start)
	if copyDone > done {
		done = copyDone
	}
	return done, int(p.ctr.Rereplicated - before), nil
}

// PartitionNode cuts a node off the network: the data path skips it, table
// installs are dropped on the floor, and its pages go dark but are NOT lost.
func (p *parentPool) PartitionNode(name string) error {
	if p.findActive(name) == nil {
		return fmt.Errorf("%w: %s", ErrNodeUnknown, name)
	}
	p.net.Partition(name)
	return nil
}

// HealNode reconnects a partitioned node and resyncs: writes it slept
// through demoted its copies, so the sweep restores it as a current replica
// (its stale copies were never servable — the index is the ground truth).
func (p *parentPool) HealNode(now time.Duration, name string) (time.Duration, error) {
	n := p.findActive(name)
	if n == nil {
		return now, fmt.Errorf("%w: %s", ErrNodeUnknown, name)
	}
	p.net.Heal(name)
	if n.epoch < p.committed.Epoch {
		n.epoch = p.committed.Epoch
	}
	return p.resyncTo(now, p.committed), nil
}
