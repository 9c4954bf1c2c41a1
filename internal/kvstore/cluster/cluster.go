package cluster

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/raft"
	"fluidmem/internal/simnet"
)

// Errors.
var (
	// ErrStaleEpoch reports a request routed with an outdated table: a store
	// node has a newer epoch installed than the client used. The client's
	// cached table has already been refreshed when this is returned, so a
	// retry (the resilience layer's job) succeeds against the new placement.
	ErrStaleEpoch = errors.New("cluster: routing table epoch is stale")
	// ErrUnavailable reports an operation none of the responsible nodes
	// could serve (down, partitioned, or removed). Transient: recovery or a
	// heal can resurrect the key, so the resilience layer retries it.
	ErrUnavailable = errors.New("cluster: no reachable replica")
	// ErrNodeUnknown reports a membership operation naming no active node.
	ErrNodeUnknown = errors.New("cluster: no such node")
	// ErrNodeCrashed reports a graceful operation aimed at a crashed node.
	ErrNodeCrashed = errors.New("cluster: node has crashed")
	// ErrNodePartitioned reports a Drain of an unreachable node: a graceful
	// copy-out needs the node; operators crash unreachable nodes instead.
	ErrNodePartitioned = errors.New("cluster: node is partitioned")
	// ErrTooFewNodes reports a change that would shrink the pool below the
	// replication factor.
	ErrTooFewNodes = errors.New("cluster: too few nodes for replication factor")
	// ErrProposalTimeout reports that the controller ensemble did not commit
	// a membership change within the operation timeout.
	ErrProposalTimeout = errors.New("cluster: membership proposal timed out")
	// ErrDrainStranded reports a Drain aborted because some page would have
	// lost its last reachable copy; the cluster is left on the old epoch.
	ErrDrainStranded = errors.New("cluster: drain would strand pages")
	// ErrSlotSpace reports exhaustion of the 64-slot lifetime node budget.
	ErrSlotSpace = errors.New("cluster: node slot space exhausted")
)

// storeNode is one remote-memory server: a page map behind read/write
// service-time devices, plus its installed view of the routing epoch.
type storeNode struct {
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

func (n *storeNode) bit() uint64 { return 1 << uint(n.slot) }

// set copies page into the node's map, reusing the existing buffer on
// overwrite so steady-state writeback traffic allocates nothing. Buffers are
// never shared between nodes (membership transfers copy, MultiPut hands the
// caller's buffer to one node only), so reuse is safe.
func (n *storeNode) set(key kvstore.Key, page []byte) {
	if old, ok := n.pages[key]; ok {
		copy(old, page)
		return
	}
	n.pages[key] = append([]byte(nil), page...)
}

// insertionSortInts sorts a tiny slice in place without the interface boxing
// sort.Ints may incur; slot lists are bounded by maxSlots.
func insertionSortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

// Config parametrises a pool.
type Config struct {
	// Nodes is the initial store-node count.
	Nodes int
	// Replicas is the copies kept per partition.
	Replicas int
	// Seed drives every random draw (devices, control-plane fabric, Raft).
	Seed uint64
	// ReadLatency / WriteLatency are the per-node service-time models.
	ReadLatency  clock.LatencyModel
	WriteLatency clock.LatencyModel
	// ControlLatency is the control-plane fabric link model (Raft RPCs and
	// table installs).
	ControlLatency clock.LatencyModel
	// OpTimeout bounds one membership proposal (virtual time).
	OpTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.ReadLatency == (clock.LatencyModel{}) {
		c.ReadLatency = clock.LatencyModel{Base: 5 * time.Microsecond, Jitter: 500 * time.Nanosecond}
	}
	if c.WriteLatency == (clock.LatencyModel{}) {
		c.WriteLatency = clock.LatencyModel{Base: 6 * time.Microsecond, Jitter: 500 * time.Nanosecond}
	}
	if c.ControlLatency == (clock.LatencyModel{}) {
		c.ControlLatency = clock.LatencyModel{Base: 2 * time.Millisecond, Jitter: 500 * time.Microsecond}
	}
	if c.OpTimeout == 0 {
		c.OpTimeout = 30 * time.Second
	}
	return c
}

// Counters is the pool's cluster-specific observability surface.
type Counters struct {
	// Epoch is the latest committed table epoch.
	Epoch uint64
	// Nodes is the active member count; Replicas the target copies.
	Nodes    int
	Replicas int
	// StaleRejects counts write requests a node rejected for carrying an
	// outdated epoch; Refreshes counts client table refreshes they forced.
	StaleRejects uint64
	Refreshes    uint64
	// Failovers counts reads served by a non-preferred replica.
	Failovers uint64
	// PartialPuts counts writes that reached only part of their assignment.
	PartialPuts uint64
	// ReadRepairs counts copies back-filled by the read path.
	ReadRepairs uint64
	// Rereplicated counts copies restored by resync sweeps (drain, crash
	// recovery, heal).
	Rereplicated uint64
}

// Pool is the sharded, replicated remote-memory pool. It implements
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
type Pool struct {
	cfg Config
	net *simnet.Network

	ctrls     []*raft.Node
	committed *Table
	client    *Table
	proposals map[uint64]bool
	nextID    uint64

	// nodes is indexed by slot; entries stay after removal (reachable() is
	// the liveness gate) so mask bits always resolve.
	nodes []*storeNode

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
	targetScratch []*storeNode
	mpNodes       []*storeNode // flat arena of per-key targets, in key order
	mpCounts      []int        // targets per key, indexes mpNodes
	mpSlots       []int        // distinct slots touched by the batch
	mpAll         []*storeNode // distinct target nodes, slot order
	mpGroups      [maxSlots]int
}

var _ kvstore.Store = (*Pool)(nil)

// installMsg carries a committed table from a controller to a store node.
type installMsg struct {
	table *Table
}

// tableCommand is the Raft log entry committing a successor table.
type tableCommand struct {
	ID    uint64
	Table *Table
}

// controllerNames is the fixed consensus ensemble.
var controllerNames = []string{"ctrl0", "ctrl1", "ctrl2"}

// New builds a pool with cfg.Nodes store nodes, elects the controller
// ensemble, and commits the initial table through Raft.
func New(cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: %d nodes < 1", cfg.Nodes)
	}
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("cluster: %d replicas < 1", cfg.Replicas)
	}
	p := &Pool{
		cfg:       cfg,
		net:       simnet.New(cfg.ControlLatency, cfg.Seed),
		committed: NewTable(0, cfg.Replicas, nil, 0),
		proposals: make(map[uint64]bool),
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
func (p *Pool) newNode(slot int) *storeNode {
	n := &storeNode{
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
		if im, ok := msg.Payload.(installMsg); ok && im.table.Epoch > n.epoch {
			n.epoch = im.table.Epoch
		}
	})
	return n
}

// Network exposes the fabric for fault injection (tests, oracle, daemon).
func (p *Pool) Network() *simnet.Network { return p.net }

// Committed reports the latest Raft-committed table.
func (p *Pool) Committed() *Table { return p.committed }

// ClientTable reports the data path's cached (possibly stale) table.
func (p *Pool) ClientTable() *Table { return p.client }

// ClusterStats snapshots the cluster-specific counters.
func (p *Pool) ClusterStats() Counters {
	c := p.ctr
	c.Epoch = p.committed.Epoch
	c.Nodes = len(p.committed.Nodes)
	c.Replicas = p.cfg.Replicas
	return c
}

// NodeNames reports the active members of the committed table, slot order.
func (p *Pool) NodeNames() []string {
	out := make([]string, 0, len(p.committed.Nodes))
	for _, n := range p.committed.Nodes {
		out = append(out, n.Name)
	}
	return out
}

// Name implements kvstore.Store.
func (p *Pool) Name() string {
	return fmt.Sprintf("cluster(n=%d,r=%d)", len(p.committed.Nodes), p.cfg.Replicas)
}

// slotNode resolves a mask bit or assignment slot to its node.
func (p *Pool) slotNode(slot int) *storeNode {
	if slot < 0 || slot >= len(p.nodes) {
		return nil
	}
	return p.nodes[slot]
}

// reachable reports whether the data path may talk to a node right now.
func (p *Pool) reachable(n *storeNode) bool {
	return n != nil && !n.crashed && !n.removed && !p.net.Partitioned(n.name)
}

// refresh re-reads the committed table into the client cache.
func (p *Pool) refresh() {
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
func (p *Pool) checkEpoch(targets []*storeNode) error {
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
func (p *Pool) appendWriteTargets(buf []*storeNode, key kvstore.Key) ([]*storeNode, int) {
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
func (p *Pool) Put(now time.Duration, key kvstore.Key, page []byte) (time.Duration, error) {
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
func (p *Pool) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
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
	insertionSortInts(p.mpSlots)
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
		if old, held := n.pages[key]; held || p.keys[key] == 0 {
			n.pages[key], pages[i] = pages[i], old
		} else {
			n.set(key, pages[i])
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
func (p *Pool) readOrder(key kvstore.Key, mask uint64) []int {
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
func (p *Pool) getKey(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
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
func (p *Pool) repair(now time.Duration, key kvstore.Key, page []byte, mask uint64) {
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
func (p *Pool) Get(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
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
func (p *Pool) MultiGet(now time.Duration, keys []kvstore.Key) ([][]byte, time.Duration, error) {
	p.stats.MultiGets++
	p.stats.Gets += uint64(len(keys))
	out := make([][]byte, len(keys))
	if len(keys) == 0 {
		return out, now, nil
	}
	groups := make(map[int][]int)
	var order []int
	var fallback []int
	for idx, key := range keys {
		mask, live := p.keys[key]
		if !live {
			p.stats.Misses++
			continue
		}
		serving := -1
		for _, slot := range p.readOrder(key, mask) {
			n := p.slotNode(slot)
			if !p.reachable(n) || mask&(1<<uint(slot)) == 0 {
				continue
			}
			if _, held := n.pages[key]; !held {
				p.keys[key] &^= 1 << uint(slot)
				continue
			}
			serving = slot
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
func (p *Pool) StartGet(now time.Duration, key kvstore.Key) kvstore.PendingGet {
	data, done, err := p.Get(now, key)
	return kvstore.PendingGet{Key: key, Data: data, ReadyAt: done, Err: err}
}

// Delete implements kvstore.Store. Unlike a write, a delete that reaches no
// node mutates nothing — the key stays in the index and the error is
// transient — so "error" always means "nothing happened" and a resilient
// retry is safe. On success the key leaves the index first; a stale copy on
// an unreachable node can never resurrect because only the index serves.
func (p *Pool) Delete(now time.Duration, key kvstore.Key) (time.Duration, error) {
	p.stats.Deletes++
	mask, live := p.keys[key]
	// Targets: the assignment plus any mask holder with a copy to scrub.
	// Like writeTargets, a resolution that reaches nobody under a stale
	// cached table refreshes and resolves once more before giving up.
	var targets []*storeNode
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
		targets = make([]*storeNode, 0, len(slots))
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
func (p *Pool) Stats() kvstore.Stats { return p.stats }

// Len reports the number of live keys in the authoritative index.
func (p *Pool) Len() int { return len(p.keys) }
