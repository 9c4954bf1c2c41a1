// Package cluster implements a sharded remote-memory pool: N store nodes
// behind an epoch-versioned partition table committed through Raft. Key→node
// routing hashes the key's 12-bit virtual partition against the table with
// rendezvous (highest-random-weight) hashing, so membership changes move the
// minimum number of partitions; each partition is R-way replicated across
// nodes by replicated.Set, the replica-set core the replicated wrapper also
// runs on. The pool survives the full membership lifecycle — AddNode, Drain
// (graceful copy-then-cutover), Crash (abrupt, re-replicated from surviving
// replicas), and network partition of a node — which is the datacenter tier
// the Memory-as-a-Service predecessor assumes and the disaggregation surveys
// identify as the central robustness gap: one store node dying must not take
// down every VM with pages on it.
package cluster

import (
	"cmp"
	"slices"

	"fluidmem/internal/kvstore"
)

// NodeInfo is one store node's entry in the routing table.
type NodeInfo struct {
	// Name is the node's simnet name.
	Name string
	// Slot is the node's permanent bit position in version masks. Slots are
	// allocated monotonically and never reused, so a mask bit always means
	// the same physical node for the lifetime of a simulation.
	Slot int
}

// maxSlots bounds lifetime node count: version masks are uint64 bitmaps.
const maxSlots = 64

// Table is one epoch of the cluster routing state: the set of active store
// nodes and the replication factor. Assignment of the 4096 virtual
// partitions to nodes is derived deterministically by rendezvous hashing, so
// the table that travels through Raft is just membership + epoch — every
// observer computes identical placement. Tables are immutable once built;
// membership changes produce a successor with Epoch+1.
type Table struct {
	// Epoch versions the table; nodes reject requests routed with an older
	// epoch than the one they have installed.
	Epoch uint64
	// Replicas is the target copies per partition (capped by node count).
	Replicas int
	// Nodes lists active members in slot order.
	Nodes []NodeInfo
	// NextSlot is the next unallocated mask bit, carried in the table so
	// epochs are self-contained.
	NextSlot int

	// assign caches partition → node slots, highest rendezvous score first.
	assign [][]int
}

// NewTable builds a table and precomputes the partition assignment.
func NewTable(epoch uint64, replicas int, nodes []NodeInfo, nextSlot int) *Table {
	t := &Table{
		Epoch:    epoch,
		Replicas: replicas,
		Nodes:    append([]NodeInfo(nil), nodes...),
		NextSlot: nextSlot,
	}
	slices.SortFunc(t.Nodes, func(a, b NodeInfo) int { return a.Slot - b.Slot })
	t.assign = make([][]int, kvstore.MaxPartitions)
	for p := range t.assign {
		t.assign[p] = t.computeAssign(kvstore.PartitionID(p))
	}
	return t
}

// computeAssign picks the Replicas highest-scoring nodes for a partition.
// Ties break by slot so placement is a pure function of (members, partition).
func (t *Table) computeAssign(part kvstore.PartitionID) []int {
	type scored struct {
		slot  int
		score uint64
	}
	scores := make([]scored, len(t.Nodes))
	for i, n := range t.Nodes {
		scores[i] = scored{slot: n.Slot, score: rendezvousScore(n.Name, part)}
	}
	slices.SortFunc(scores, func(a, b scored) int {
		return cmp.Or(cmp.Compare(b.score, a.score), a.slot-b.slot)
	})
	out := make([]int, min(t.Replicas, len(scores)))
	for i := range out {
		out[i] = scores[i].slot
	}
	return out
}

// Assign returns the node slots serving a partition, preferred replica first.
// The returned slice is shared; callers must not mutate it.
func (t *Table) Assign(part kvstore.PartitionID) []int {
	return t.assign[part&0xFFF]
}

// Has reports whether a node name is an active member.
func (t *Table) Has(name string) bool {
	return slices.ContainsFunc(t.Nodes, func(n NodeInfo) bool { return n.Name == name })
}

// WithNode returns the successor table (Epoch+1) with a new member occupying
// the next slot, or nil if the slot space is exhausted or the name is taken.
func (t *Table) WithNode(name string) *Table {
	if t.Has(name) || t.NextSlot >= maxSlots {
		return nil
	}
	nodes := append(append([]NodeInfo(nil), t.Nodes...), NodeInfo{Name: name, Slot: t.NextSlot})
	return NewTable(t.Epoch+1, t.Replicas, nodes, t.NextSlot+1)
}

// WithoutNodes returns the successor table (Epoch+1) with the named members
// removed, or nil if none of them is a member.
func (t *Table) WithoutNodes(names ...string) *Table {
	nodes := slices.DeleteFunc(slices.Clone(t.Nodes), func(n NodeInfo) bool { return slices.Contains(names, n.Name) })
	if len(nodes) == len(t.Nodes) {
		return nil
	}
	return NewTable(t.Epoch+1, t.Replicas, nodes, t.NextSlot)
}

// rendezvousScore is FNV-1a over (node name, partition). Each node scores
// every partition independently, so adding or removing a node only moves the
// partitions it wins or loses — minimal disruption on membership change.
func rendezvousScore(name string, part kvstore.PartitionID) uint64 {
	var h uint64 = 14695981039346656037
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for i := 0; i < len(name); i++ {
		mix(name[i])
	}
	mix(byte(part))
	mix(byte(part >> 8))
	// Finalize with full avalanche: bare FNV-1a only perturbs the low bits
	// per partition, which would let one node's name dominate the ordering
	// for every partition. After this, each (node, partition) pair scores
	// independently — the property rendezvous hashing depends on.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
