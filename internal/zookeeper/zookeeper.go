// Package zookeeper provides a small replicated, globally-consistent table
// service in the spirit of Apache ZooKeeper, backed by the raft package. The
// paper (§IV) uses ZooKeeper to guarantee global uniqueness of the virtual
// partition index built from (PID, hypervisor ID, nonce), and upstream
// FluidMem keeps its cluster state there too; this package offers the
// znode-table subset those need: versioned create/get/set/delete and a
// persistent watch. The cluster pool's controller ensemble is one of these,
// holding both its routing table and the partition claims.
package zookeeper

import (
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/raft"
	"fluidmem/internal/simnet"
)

// Errors returned by table operations, matching ZooKeeper's error vocabulary.
var (
	ErrNodeExists = errors.New("zookeeper: node already exists")
	ErrNoNode     = errors.New("zookeeper: node does not exist")
	ErrBadVersion = errors.New("zookeeper: version mismatch")
	ErrTimeout    = errors.New("zookeeper: operation timed out")
)

// opTimeout bounds how long (virtual time) one operation may take, across
// every leader change it retries through.
const opTimeout = 30 * time.Second

// op kinds.
const (
	opCreate = "create"
	opGet    = "get"
	opSet    = "set"
	opDelete = "delete"
)

// command is one replicated table operation. Every operation, including
// reads, goes through the log, which makes all operations linearizable.
type command struct {
	ID      uint64
	Kind    string
	Path    string
	Data    []byte
	Version uint64
}

// result is the outcome of an applied command.
type result struct {
	Err     error
	Data    []byte
	Version uint64
}

type znode struct {
	data    []byte
	version uint64
}

// table is the deterministic state machine replicated by raft.
type table struct {
	nodes   map[string]*znode
	results map[uint64]result // opID → result, for exactly-once retries
}

func newTable() *table {
	return &table{
		nodes:   make(map[string]*znode),
		results: make(map[uint64]result),
	}
}

func (t *table) apply(cmd command) result {
	if r, done := t.results[cmd.ID]; done {
		return r // duplicate delivery of a retried proposal
	}
	var r result
	switch cmd.Kind {
	case opCreate:
		if _, exists := t.nodes[cmd.Path]; exists {
			r.Err = ErrNodeExists
			break
		}
		t.nodes[cmd.Path] = &znode{data: append([]byte(nil), cmd.Data...), version: 1}
		r.Version = 1
	case opGet:
		n, exists := t.nodes[cmd.Path]
		if !exists {
			r.Err = ErrNoNode
			break
		}
		r.Data = append([]byte(nil), n.data...)
		r.Version = n.version
	case opSet:
		n, exists := t.nodes[cmd.Path]
		if !exists {
			r.Err = ErrNoNode
			break
		}
		if cmd.Version != 0 && cmd.Version != n.version {
			r.Err = ErrBadVersion
			break
		}
		n.data = append([]byte(nil), cmd.Data...)
		n.version++
		r.Version = n.version
	case opDelete:
		n, exists := t.nodes[cmd.Path]
		if !exists {
			r.Err = ErrNoNode
			break
		}
		if cmd.Version != 0 && cmd.Version != n.version {
			r.Err = ErrBadVersion
			break
		}
		delete(t.nodes, cmd.Path)
	default:
		r.Err = fmt.Errorf("zookeeper: unknown op %q", cmd.Kind)
	}
	t.results[cmd.ID] = r
	return r
}

// Cluster is an ensemble of raft-replicated tables with a synchronous client
// API. Client calls drive the shared simnet event loop until the operation
// commits, so from the caller's perspective operations are simple blocking
// calls on the virtual timeline.
type Cluster struct {
	net     *simnet.Network
	nodes   []*raft.Node
	tables  []*table
	done    map[uint64]result // results, recorded at the first replica's apply
	watches map[string]func(data []byte, version uint64)
	nextID  uint64
}

// New builds an ensemble whose replicas are the named members of net, raft
// seeds seed+i in name order, and returns once a leader is elected. Odd
// member counts recommended.
func New(net *simnet.Network, names []string, seed uint64) (*Cluster, error) {
	if len(names) < 1 {
		return nil, errors.New("zookeeper: an ensemble needs at least one member")
	}
	c := &Cluster{
		net:     net,
		done:    make(map[uint64]result),
		watches: make(map[string]func([]byte, uint64)),
	}
	for i, id := range names {
		tbl := newTable()
		c.tables = append(c.tables, tbl)
		node := raft.NewNode(raft.Config{ID: id, Peers: names, Seed: seed + uint64(i)}, net, func(index uint64, cmd any) {
			// Every replica computes the identical result (deterministic
			// state machine), so the first to apply records it and fires the
			// watch; the client stays responsive even if some replica is down.
			op := cmd.(command)
			r := tbl.apply(op)
			if _, seen := c.done[op.ID]; seen {
				return
			}
			c.done[op.ID] = r
			if watch := c.watches[op.Path]; watch != nil && r.Err == nil && op.Kind != opGet {
				watch(op.Data, r.Version)
			}
		})
		c.nodes = append(c.nodes, node)
	}
	deadline := net.Clock.Now() + time.Minute
	for c.leader() == nil && net.Clock.Now() < deadline {
		net.RunFor(10 * time.Millisecond)
	}
	if c.leader() == nil {
		return nil, errors.New("zookeeper: initial leader election failed")
	}
	return c, nil
}

// Network exposes the underlying fabric for fault-injection in tests.
func (c *Cluster) Network() *simnet.Network { return c.net }

// Watch registers fn as path's persistent watch, replacing any earlier one.
// It fires once per committed change to path — a create or set with the new
// data and version, a delete with nil and 0 — at the first replica's apply,
// in log order.
func (c *Cluster) Watch(path string, fn func(data []byte, version uint64)) {
	c.watches[path] = fn
}

// Create makes a new znode. It fails with ErrNodeExists if path is taken.
func (c *Cluster) Create(path string, data []byte) error {
	r, err := c.do(command{Kind: opCreate, Path: path, Data: data})
	if err != nil {
		return err
	}
	return r.Err
}

// Get returns a znode's data and version.
func (c *Cluster) Get(path string) ([]byte, uint64, error) {
	r, err := c.do(command{Kind: opGet, Path: path})
	if err != nil {
		return nil, 0, err
	}
	return r.Data, r.Version, r.Err
}

// Set replaces a znode's data. version 0 means unconditional; otherwise the
// write succeeds only if the current version matches (compare-and-set).
func (c *Cluster) Set(path string, data []byte, version uint64) (uint64, error) {
	r, err := c.do(command{Kind: opSet, Path: path, Data: data, Version: version})
	if err != nil {
		return 0, err
	}
	return r.Version, r.Err
}

// Delete removes a znode, with the same version semantics as Set.
func (c *Cluster) Delete(path string, version uint64) error {
	r, err := c.do(command{Kind: opDelete, Path: path, Version: version})
	if err != nil {
		return err
	}
	return r.Err
}

func (c *Cluster) leader() *raft.Node {
	var lead *raft.Node
	for _, n := range c.nodes {
		if n.Role() == raft.Leader {
			if lead == nil || n.Term() > lead.Term() {
				lead = n
			}
		}
	}
	return lead
}

// do proposes cmd through the current leader and pumps the event loop until
// a replica applies it, retrying across leader changes. Proposals are
// deduplicated by ID inside the state machine, so retries are exactly-once.
// A proposal that times out may still commit later, once a quorum returns.
func (c *Cluster) do(cmd command) (result, error) {
	c.nextID++
	cmd.ID = c.nextID
	overall := c.net.Clock.Now() + opTimeout
	for c.net.Clock.Now() < overall {
		lead := c.leader()
		if lead == nil {
			c.net.RunFor(20 * time.Millisecond)
			continue
		}
		if _, _, ok := lead.Propose(cmd); !ok {
			c.net.RunFor(20 * time.Millisecond)
			continue
		}
		attempt := c.net.Clock.Now() + 2*time.Second
		for c.net.Clock.Now() < attempt {
			if r, ok := c.done[cmd.ID]; ok {
				return r, nil
			}
			c.net.RunFor(5 * time.Millisecond)
		}
	}
	if r, ok := c.done[cmd.ID]; ok {
		return r, nil
	}
	return result{}, ErrTimeout
}
