// Package raft implements a compact Raft consensus core (leader election,
// log replication, commitment) over the simnet fabric. It is the substrate
// for the replicated, globally-consistent virtual-partition table that the
// paper stores in ZooKeeper (§IV).
//
// The implementation covers the Raft safety core: term-monotonic voting with
// the up-to-date log check, AppendEntries consistency checking with conflict
// rollback, and majority commitment restricted to the leader's current term.
// Snapshots and membership change are out of scope; the registry's state fits
// in the log for the lifetime of a simulation.
package raft

import (
	"fmt"
	"sort"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/simnet"
)

// Role is a node's current Raft role.
type Role int

// Raft roles.
const (
	Follower Role = iota + 1
	Candidate
	Leader
)

func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Entry is one replicated log record.
type Entry struct {
	Term    uint64
	Command any
}

// ApplyFunc is invoked, in log order, once an entry commits.
type ApplyFunc func(index uint64, cmd any)

// noOp is the barrier entry a new leader appends so that entries from prior
// terms become committable (Raft §5.4.2). It is never passed to ApplyFunc.
type noOp struct{}

// Config parametrises a node.
type Config struct {
	// ID is this node's simnet name.
	ID string
	// Peers lists all cluster members, including this node.
	Peers []string
	// ElectionTimeoutMin/Max bound the randomised election timeout.
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
	// HeartbeatInterval is the leader's AppendEntries cadence.
	HeartbeatInterval time.Duration
	// Seed feeds the node's private RNG (timeout randomisation).
	Seed uint64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ElectionTimeoutMin == 0 {
		out.ElectionTimeoutMin = 150 * time.Millisecond
	}
	if out.ElectionTimeoutMax == 0 {
		out.ElectionTimeoutMax = 300 * time.Millisecond
	}
	if out.HeartbeatInterval == 0 {
		out.HeartbeatInterval = 50 * time.Millisecond
	}
	return out
}

// RPC payloads.
type (
	requestVote struct {
		Term         uint64
		Candidate    string
		LastLogIndex uint64
		LastLogTerm  uint64
	}
	requestVoteReply struct {
		Term    uint64
		Granted bool
	}
	appendEntries struct {
		Term         uint64
		Leader       string
		PrevLogIndex uint64
		PrevLogTerm  uint64
		Entries      []Entry
		LeaderCommit uint64
	}
	appendEntriesReply struct {
		Term       uint64
		Success    bool
		MatchIndex uint64
	}
)

// Node is one Raft participant. All methods must be called from the simnet
// event loop thread (the simulation is single-threaded).
type Node struct {
	cfg   Config
	net   *simnet.Network
	apply ApplyFunc
	rng   *clock.Rand

	role        Role
	currentTerm uint64
	votedFor    string
	log         []Entry // log[0] is a sentinel at index 0
	commitIndex uint64
	lastApplied uint64

	// Leader state.
	nextIndex  map[string]uint64
	matchIndex map[string]uint64

	votes map[string]bool

	// electionEpoch invalidates stale election timers after any reset.
	electionEpoch uint64
	stopped       bool
}

// NewNode creates a node, registers it on the network, and arms its first
// election timer. The node starts as a follower at term 0.
func NewNode(cfg Config, net *simnet.Network, apply ApplyFunc) *Node {
	c := cfg.withDefaults()
	n := &Node{
		cfg:   c,
		net:   net,
		apply: apply,
		rng:   clock.NewRand(c.Seed ^ hashString(c.ID)),
		role:  Follower,
		log:   make([]Entry, 1), // sentinel
	}
	net.Register(c.ID, n.handle)
	n.resetElectionTimer()
	return n
}

// Stop silences the node: it ignores all traffic and timers. Used to model
// crashes in tests.
func (n *Node) Stop() { n.stopped = true }

// Restart revives a stopped node as a follower with its persistent state
// (term, vote, log) intact, mirroring a crash-recover cycle.
func (n *Node) Restart() {
	n.stopped = false
	n.role = Follower
	n.votes = nil
	n.resetElectionTimer()
}

// Role reports the node's current role.
func (n *Node) Role() Role { return n.role }

// Term reports the node's current term.
func (n *Node) Term() uint64 { return n.currentTerm }

// Propose appends cmd to the leader's log and begins replication. It returns
// the entry's index and term, or ok=false if this node is not the leader.
func (n *Node) Propose(cmd any) (index, term uint64, ok bool) {
	if n.stopped || n.role != Leader {
		return 0, 0, false
	}
	n.log = append(n.log, Entry{Term: n.currentTerm, Command: cmd})
	idx := uint64(len(n.log) - 1)
	n.matchIndex[n.cfg.ID] = idx
	n.advanceCommit() // a single-node cluster commits immediately
	n.broadcastAppend()
	return idx, n.currentTerm, true
}

func (n *Node) handle(now time.Duration, msg simnet.Message) {
	if n.stopped {
		return
	}
	switch m := msg.Payload.(type) {
	case requestVote:
		n.onRequestVote(msg.From, m)
	case requestVoteReply:
		n.onRequestVoteReply(msg.From, m)
	case appendEntries:
		n.onAppendEntries(msg.From, m)
	case appendEntriesReply:
		n.onAppendEntriesReply(msg.From, m)
	}
}

func (n *Node) onRequestVote(from string, m requestVote) {
	if m.Term > n.currentTerm {
		n.becomeFollower(m.Term)
	}
	granted := false
	if m.Term == n.currentTerm && (n.votedFor == "" || n.votedFor == m.Candidate) && n.logUpToDate(m.LastLogIndex, m.LastLogTerm) {
		granted = true
		n.votedFor = m.Candidate
		n.resetElectionTimer()
	}
	n.net.Send(n.cfg.ID, from, requestVoteReply{Term: n.currentTerm, Granted: granted})
}

// logUpToDate reports whether the candidate's log is at least as up-to-date
// as ours (Raft §5.4.1).
func (n *Node) logUpToDate(lastIndex, lastTerm uint64) bool {
	myLast := uint64(len(n.log) - 1)
	myTerm := n.log[myLast].Term
	if lastTerm != myTerm {
		return lastTerm > myTerm
	}
	return lastIndex >= myLast
}

func (n *Node) onRequestVoteReply(from string, m requestVoteReply) {
	if m.Term > n.currentTerm {
		n.becomeFollower(m.Term)
		return
	}
	if n.role != Candidate || m.Term != n.currentTerm || !m.Granted {
		return
	}
	n.votes[from] = true
	if len(n.votes) >= n.majority() {
		n.becomeLeader()
	}
}

func (n *Node) onAppendEntries(from string, m appendEntries) {
	if m.Term > n.currentTerm {
		n.becomeFollower(m.Term)
	}
	if m.Term < n.currentTerm {
		n.net.Send(n.cfg.ID, from, appendEntriesReply{Term: n.currentTerm})
		return
	}
	// Valid leader for this term.
	if n.role != Follower {
		n.becomeFollower(m.Term)
	}
	n.resetElectionTimer()

	// Consistency check.
	if m.PrevLogIndex >= uint64(len(n.log)) || n.log[m.PrevLogIndex].Term != m.PrevLogTerm {
		n.net.Send(n.cfg.ID, from, appendEntriesReply{Term: n.currentTerm, Success: false})
		return
	}
	// Append, truncating conflicts.
	idx := m.PrevLogIndex
	for i, e := range m.Entries {
		idx = m.PrevLogIndex + uint64(i) + 1
		if idx < uint64(len(n.log)) {
			if n.log[idx].Term != e.Term {
				n.log = n.log[:idx]
				n.log = append(n.log, e)
			}
			continue
		}
		n.log = append(n.log, e)
	}
	match := m.PrevLogIndex + uint64(len(m.Entries))
	if m.LeaderCommit > n.commitIndex {
		n.commitIndex = min64(m.LeaderCommit, uint64(len(n.log)-1))
		n.applyCommitted()
	}
	n.net.Send(n.cfg.ID, from, appendEntriesReply{Term: n.currentTerm, Success: true, MatchIndex: match})
}

func (n *Node) onAppendEntriesReply(from string, m appendEntriesReply) {
	if m.Term > n.currentTerm {
		n.becomeFollower(m.Term)
		return
	}
	if n.role != Leader || m.Term != n.currentTerm {
		return
	}
	if m.Success {
		if m.MatchIndex > n.matchIndex[from] {
			n.matchIndex[from] = m.MatchIndex
			n.nextIndex[from] = m.MatchIndex + 1
			n.advanceCommit()
		}
		return
	}
	// Conflict: back off and retry immediately.
	if n.nextIndex[from] > 1 {
		n.nextIndex[from]--
	}
	n.sendAppendTo(from)
}

// advanceCommit commits the highest index replicated on a majority whose
// entry is from the current term (Raft §5.4.2).
func (n *Node) advanceCommit() {
	matches := make([]uint64, 0, len(n.cfg.Peers))
	for _, p := range n.cfg.Peers {
		matches = append(matches, n.matchIndex[p])
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i] > matches[j] })
	candidate := matches[n.majority()-1]
	if candidate > n.commitIndex && n.log[candidate].Term == n.currentTerm {
		n.commitIndex = candidate
		n.applyCommitted()
	}
}

func (n *Node) applyCommitted() {
	for n.lastApplied < n.commitIndex {
		n.lastApplied++
		cmd := n.log[n.lastApplied].Command
		if _, isBarrier := cmd.(noOp); isBarrier {
			continue
		}
		if n.apply != nil {
			n.apply(n.lastApplied, cmd)
		}
	}
}

func (n *Node) becomeFollower(term uint64) {
	if term > n.currentTerm {
		n.currentTerm = term
		n.votedFor = ""
	}
	n.role = Follower
	n.votes = nil
	n.resetElectionTimer()
}

func (n *Node) becomeCandidate() {
	n.role = Candidate
	n.currentTerm++
	n.votedFor = n.cfg.ID
	n.votes = map[string]bool{n.cfg.ID: true}
	n.resetElectionTimer()
	last := uint64(len(n.log) - 1)
	req := requestVote{
		Term:         n.currentTerm,
		Candidate:    n.cfg.ID,
		LastLogIndex: last,
		LastLogTerm:  n.log[last].Term,
	}
	for _, p := range n.cfg.Peers {
		if p != n.cfg.ID {
			n.net.Send(n.cfg.ID, p, req)
		}
	}
	if len(n.votes) >= n.majority() { // single-node cluster
		n.becomeLeader()
	}
}

func (n *Node) becomeLeader() {
	if n.role == Leader {
		return
	}
	n.role = Leader
	n.nextIndex = make(map[string]uint64, len(n.cfg.Peers))
	n.matchIndex = make(map[string]uint64, len(n.cfg.Peers))
	last := uint64(len(n.log) - 1)
	for _, p := range n.cfg.Peers {
		n.nextIndex[p] = last + 1
		n.matchIndex[p] = 0
	}
	// Barrier no-op so prior-term entries become committable this term.
	n.log = append(n.log, Entry{Term: n.currentTerm, Command: noOp{}})
	n.matchIndex[n.cfg.ID] = uint64(len(n.log) - 1)
	n.advanceCommit() // single-node clusters commit immediately
	n.broadcastAppend()
	n.scheduleHeartbeat()
}

func (n *Node) scheduleHeartbeat() {
	term := n.currentTerm
	n.net.After(n.cfg.HeartbeatInterval, func(now time.Duration) {
		if n.stopped || n.role != Leader || n.currentTerm != term {
			return
		}
		n.broadcastAppend()
		n.scheduleHeartbeat()
	})
}

func (n *Node) broadcastAppend() {
	for _, p := range n.cfg.Peers {
		if p != n.cfg.ID {
			n.sendAppendTo(p)
		}
	}
}

func (n *Node) sendAppendTo(peer string) {
	next := n.nextIndex[peer]
	if next < 1 {
		next = 1
	}
	prev := next - 1
	entries := make([]Entry, len(n.log[next:]))
	copy(entries, n.log[next:])
	n.net.Send(n.cfg.ID, peer, appendEntries{
		Term:         n.currentTerm,
		Leader:       n.cfg.ID,
		PrevLogIndex: prev,
		PrevLogTerm:  n.log[prev].Term,
		Entries:      entries,
		LeaderCommit: n.commitIndex,
	})
}

func (n *Node) resetElectionTimer() {
	n.electionEpoch++
	epoch := n.electionEpoch
	span := n.cfg.ElectionTimeoutMax - n.cfg.ElectionTimeoutMin
	timeout := n.cfg.ElectionTimeoutMin
	if span > 0 {
		timeout += time.Duration(n.rng.Uint64() % uint64(span))
	}
	n.net.After(timeout, func(now time.Duration) {
		if n.stopped || epoch != n.electionEpoch || n.role == Leader {
			return
		}
		n.becomeCandidate()
	})
}

func (n *Node) majority() int { return len(n.cfg.Peers)/2 + 1 }

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
