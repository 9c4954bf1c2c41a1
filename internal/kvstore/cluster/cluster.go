package cluster

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/replicated"
	"fluidmem/internal/simnet"
	"fluidmem/internal/zookeeper"
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

// storeNode is one remote-memory server's place in the pool: its name and
// version-mask slot, its installed view of the routing epoch, and whether it
// crashed or left. Its pages are the dram.Store the pool's replica set holds
// as member slot.
type storeNode struct {
	name string
	slot int
	// epoch is the newest table epoch the node has installed (via a
	// controller install message over simnet, or a catch-up during an op).
	epoch   uint64
	crashed bool
	removed bool
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
	return c
}

// Counters is the pool's cluster-specific observability surface.
type Counters struct {
	// Epoch is the latest committed table epoch.
	Epoch uint64 `json:"epoch"`
	// Nodes is the active member count; Replicas the target copies.
	Nodes    int `json:"nodes"`
	Replicas int `json:"replicas"`
	// StaleRejects counts write requests a node rejected for carrying an
	// outdated epoch; Refreshes counts client table refreshes they forced.
	StaleRejects uint64 `json:"stale_rejects"`
	Refreshes    uint64 `json:"refreshes"`
	// Failovers counts reads served by a non-preferred replica.
	Failovers uint64 `json:"failovers"`
	// PartialPuts counts writes that reached only part of their assignment.
	PartialPuts uint64 `json:"partial_puts"`
	// ReadRepairs counts copies back-filled by the read path.
	ReadRepairs uint64 `json:"read_repairs"`
	// Rereplicated counts copies restored by resync sweeps (drain, crash
	// recovery, heal).
	Rereplicated uint64 `json:"rereplicated"`
}

// Pool is the sharded, replicated remote-memory pool: a kvstore.Store over a
// replicated.Set whose members are the store nodes, told where each key goes
// (its partition's assignment under the client's cached table) and which
// nodes are reachable. The control plane is the paper's ZooKeeper: a fixed
// 3-controller ensemble whose znode /fluidmem/table is the routing table and
// whose version is its epoch. A membership change compare-and-sets a
// successor table; the pool's watch on the znode installs each committed
// table on the store nodes over the simulated fabric. The ensemble also holds
// the partition claims of the machines the pool serves (Registry).
//
// The client's cached table is deliberately NOT refreshed when a change
// commits: it discovers new epochs the way a real distributed client does,
// by having a write rejected with ErrStaleEpoch — which refreshes the cache
// and surfaces a transient error for the resilience layer to retry.
type Pool struct {
	cfg Config
	net *simnet.Network
	zk  *zookeeper.Cluster

	committed *Table
	client    *Table

	// nodes is indexed by slot and follows the committed table (install).
	// Entries stay after removal (placement.Live is the liveness gate) so
	// mask bits always resolve.
	nodes []*storeNode
	// set holds each node's pages as member slot, and the version index.
	set replicated.Set
	// owed marks a crashed node the committed table dropped with no resync
	// since: Recover's re-replication is still to run.
	owed bool

	staleRejects uint64
	refreshes    uint64
}

var _ kvstore.Store = (*Pool)(nil)

// controllerNames is the fixed consensus ensemble.
var controllerNames = []string{"ctrl0", "ctrl1", "ctrl2"}

// tablePath is the routing table's znode.
const tablePath = "/fluidmem/table"

// New builds a pool with cfg.Nodes store nodes, elects the controller
// ensemble, and creates the table znode, so even epoch 1 is Raft-ordered.
func New(cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: %d nodes < 1", cfg.Nodes)
	}
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("cluster: %d replicas < 1", cfg.Replicas)
	}
	p := &Pool{cfg: cfg, net: simnet.New(cfg.ControlLatency, cfg.Seed)}
	zk, err := zookeeper.New(p.net, controllerNames, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("cluster: controllers: %w", err)
	}
	p.zk = zk
	zk.Watch(tablePath, p.install)
	infos := make([]NodeInfo, cfg.Nodes)
	for i := range infos {
		infos[i] = NodeInfo{Name: fmt.Sprintf("node%d", i), Slot: i}
	}
	if err := zk.Create(tablePath, encodeTable(&Table{Epoch: 1, Replicas: cfg.Replicas, Nodes: infos, NextSlot: cfg.Nodes})); err != nil {
		return nil, fmt.Errorf("cluster: create table: %w", err)
	}
	p.net.RunFor(installDrain)
	p.client = p.committed
	return p, nil
}

// newNode creates the store node of a committed member, joins its pages to
// the replica set, and registers it on the fabric for table installs. It
// draws nothing from the fabric. The node's read and write devices are
// seeded Seed+2·slot+11 and +12.
func (p *Pool) newNode(name string, slot int) {
	n := &storeNode{name: name, slot: slot}
	for len(p.nodes) <= slot {
		p.nodes = append(p.nodes, nil)
	}
	p.nodes[slot] = n
	p.set.Join(slot, dram.New(dram.Params{ReadLatency: p.cfg.ReadLatency, WriteLatency: p.cfg.WriteLatency}, p.cfg.Seed+uint64(slot)*2+11))
	p.net.Register(n.name, func(now time.Duration, msg simnet.Message) {
		if n.crashed || n.removed {
			return
		}
		if t, ok := msg.Payload.(*Table); ok && t.Epoch > n.epoch {
			n.epoch = t.Epoch
		}
	})
}

// Network exposes the fabric for fault injection (tests, oracle, daemon).
func (p *Pool) Network() *simnet.Network { return p.net }

// Committed reports the latest committed table.
func (p *Pool) Committed() *Table { return p.committed }

// Registry is the partition registry over the pool's controller ensemble:
// claims live under /fluidmem/partitions beside the routing table.
func (p *Pool) Registry() *kvstore.ZKRegistry { return kvstore.NewZKRegistry(p.zk) }

// ClusterStats snapshots the cluster-specific counters.
func (p *Pool) ClusterStats() Counters {
	rc := p.set.Counters()
	return Counters{
		Epoch:        p.committed.Epoch,
		Nodes:        len(p.committed.Nodes),
		Replicas:     p.cfg.Replicas,
		StaleRejects: p.staleRejects,
		Refreshes:    p.refreshes,
		Failovers:    rc.Failovers,
		PartialPuts:  rc.PartialPuts,
		ReadRepairs:  rc.ReadRepairs,
		Rereplicated: rc.Rereplicated,
	}
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

// placement is the pool as its replica set sees it: a key's targets are its
// partition's assignment under the client's cached table, preferred replica
// first, and a node is live while the data path can reach it.
type placement Pool

func (pl *placement) Live(slot int) bool {
	n := pl.nodes[slot]
	return n != nil && !n.crashed && !n.removed && !pl.net.Partitioned(n.name)
}

func (pl *placement) Targets(buf []int, key kvstore.Key) []int {
	return append(buf, pl.client.Assign(key.Partition())...)
}

// ReadOrder lists the assignment, then any remaining mask holders ascending,
// so a read survives placement drift. Reads are not epoch-checked: the mask
// guarantees the current version, so a crash with R≥2 is absorbed by a
// surviving replica with no error surfaced even without the retry layer.
func (pl *placement) ReadOrder(buf []int, key kvstore.Key, mask uint64) []int {
	start := len(buf)
	buf = pl.Targets(buf, key)
	for _, s := range buf[start:] {
		mask &^= 1 << uint(s)
	}
	for ; mask != 0; mask &= mask - 1 {
		buf = append(buf, bits.TrailingZeros64(mask))
	}
	return buf
}

// Refresh re-reads the committed table into the client cache, reporting
// whether the cache was stale. It is the client's self-heal for a fully dark
// placement too: with every routed node dark nobody is left to bounce
// ErrStaleEpoch, so the client would retry the same dead placement forever.
func (pl *placement) Refresh() bool {
	if pl.client == pl.committed {
		return false
	}
	pl.client = pl.committed
	pl.refreshes++
	return true
}

// Admit checks a write's epoch at every node it touches before anything
// mutates, so a stale-epoch reject is all-or-nothing. A node behind the
// client catches up (the fabric drops installs); a node ahead rejects, which
// refreshes the client cache and returns the transient ErrStaleEpoch.
func (pl *placement) Admit(slots []int) error {
	for _, s := range slots {
		n := pl.nodes[s]
		n.epoch = max(n.epoch, pl.client.Epoch)
		if n.epoch > pl.client.Epoch {
			pl.staleRejects++
			pl.Refresh()
			return ErrStaleEpoch
		}
	}
	return nil
}

func (pl *placement) Unavailable(key kvstore.Key) error {
	return fmt.Errorf("%w: %v", ErrUnavailable, key)
}

func (pl *placement) Bytes() uint64 { return uint64(pl.set.Len()) * kvstore.PageSize }

// Put implements kvstore.Store.
func (p *Pool) Put(now time.Duration, key kvstore.Key, page []byte) (time.Duration, error) {
	return p.set.Put(now, key, page, (*placement)(p))
}

// MultiPut implements kvstore.Store.
func (p *Pool) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	return p.set.MultiPut(now, keys, pages, (*placement)(p))
}

// Get implements kvstore.Store.
func (p *Pool) Get(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
	return p.set.Get(now, key, (*placement)(p))
}

// MultiGet implements kvstore.Store.
func (p *Pool) MultiGet(now time.Duration, keys []kvstore.Key) ([][]byte, time.Duration, error) {
	return p.set.MultiGet(now, keys, (*placement)(p))
}

// StartGet implements kvstore.Store: the split read issues the failover
// sweep synchronously, so ReadyAt is the sweep's completion time.
func (p *Pool) StartGet(now time.Duration, key kvstore.Key) kvstore.PendingGet {
	data, done, err := p.Get(now, key)
	return kvstore.PendingGet{Key: key, Data: data, ReadyAt: done, Err: err}
}

// Delete implements kvstore.Store.
func (p *Pool) Delete(now time.Duration, key kvstore.Key) (time.Duration, error) {
	return p.set.Delete(now, key, (*placement)(p))
}

// Stats implements kvstore.Store.
func (p *Pool) Stats() kvstore.Stats { return p.set.Stats() }

// Len reports the number of live keys in the authoritative index.
func (p *Pool) Len() int { return p.set.Len() }
