// Package replicated implements page replication across remote servers, one
// of the provider customisations the paper calls out as a benefit of
// handling paging in user space (§III: "Some examples are page compression
// or replication across remote servers").
//
// Set is the one replica-set core. Store is its fixed-membership owner: it
// fans every write out to its N members and completes with the slowest (the
// monitor's writeback is asynchronous, so this rarely touches the fault
// critical path, matching the paper's note that RAMCloud replication "only
// impacts key-value writes"), and reads from the primary, failing over
// member by member, so a remote-memory server crash no longer kills every VM
// with pages on it. The cluster pool is the core's other owner. Read-repair
// back-fills stale members the moment a read finds the current value, and
// Resync sweeps the whole keyspace — the sequence a provider runs after
// healing a member and before it may become primary again.
package replicated

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"fluidmem/internal/kvstore"
)

// Errors.
var (
	// ErrNoReplicas reports construction without member stores.
	ErrNoReplicas = errors.New("replicated: need at least one member store")
	// ErrAllReplicasDown reports an operation with every member failed.
	ErrAllReplicasDown = errors.New("replicated: all replicas down")
	// ErrUnavailable reports a read of a key that exists but that no live
	// member currently holds (its holders are down or erroring). Unlike
	// ErrNotFound this is transient: a retry after recovery can succeed.
	ErrUnavailable = errors.New("replicated: no live replica holds the key")
)

// Store is the replication wrapper: a Set whose members all hold every key.
type Store struct {
	set  Set
	down []bool
	// primary is the preferred read replica.
	primary int
}

var _ kvstore.Store = (*Store)(nil)

// New wraps the member stores. members[0] is the initial read primary.
func New(members ...kvstore.Store) (*Store, error) {
	if len(members) == 0 {
		return nil, ErrNoReplicas
	}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("replicated: member %d is nil", i)
		}
	}
	if len(members) > 64 {
		return nil, fmt.Errorf("replicated: %d members exceeds the 64-member index", len(members))
	}
	s := &Store{down: make([]bool, len(members))}
	for i, m := range members {
		s.set.Join(i, m)
	}
	return s, nil
}

// fixed is a Store's placement: the targets of every key are the members not
// marked down (so a write a down member misses is not partial), reads start
// at the primary, and down[] is liveness.
type fixed Store

func (f *fixed) Live(i int) bool { return !f.down[i] }

func (f *fixed) Targets(buf []int, _ kvstore.Key) []int {
	for i, down := range f.down {
		if !down {
			buf = append(buf, i)
		}
	}
	return buf
}

func (f *fixed) ReadOrder(buf []int, _ kvstore.Key, _ uint64) []int {
	for off := range f.down {
		buf = append(buf, (f.primary+off)%len(f.down))
	}
	return buf
}

func (f *fixed) Refresh() bool { return false }

func (f *fixed) Admit([]int) error { return nil }

func (f *fixed) Unavailable(key kvstore.Key) error {
	if !slices.Contains(f.down, false) {
		return ErrAllReplicasDown
	}
	return fmt.Errorf("%w: %v", ErrUnavailable, key)
}

// Bytes reports the first healthy member's payload (logical bytes, not
// total replicated bytes).
func (f *fixed) Bytes() uint64 {
	for i, m := range f.set.members {
		if !f.down[i] {
			return m.Stats().BytesStored
		}
	}
	return 0
}

// Name implements kvstore.Store.
func (s *Store) Name() string {
	return fmt.Sprintf("replicated(%s×%d)", s.set.members[0].Name(), len(s.down))
}

// Fail marks member i crashed: reads fail over, writes skip it. Fail and
// Recover are the fault-injection surface for tests and demos.
func (s *Store) Fail(i int) error { return s.mark(i, true) }

// Recover brings member i back. Pages written while it was down are missing
// there until read-repair or a Resync sweep back-fills them; in the interim,
// reads of those keys fail over to members that have them.
func (s *Store) Recover(i int) error { return s.mark(i, false) }

func (s *Store) mark(i int, down bool) error {
	if i < 0 || i >= len(s.down) {
		return fmt.Errorf("replicated: no member %d", i)
	}
	s.down[i] = down
	return nil
}

// Counters reports the masking and convergence work: failovers, member
// errors, partial puts, read-repairs and resynced copies.
func (s *Store) Counters() Counters { return s.set.Counters() }

// Members reports the replication factor.
func (s *Store) Members() int { return len(s.down) }

// Primary reports the current preferred read replica.
func (s *Store) Primary() int { return s.primary }

// RotatePrimary advances the preferred read replica to the next member not
// marked down, returning the new primary index. The resilience layer calls
// this when the current primary keeps failing or limping (gray replica) —
// failures Fail/Recover bookkeeping never sees.
func (s *Store) RotatePrimary() int {
	for off := 1; off <= len(s.down); off++ {
		i := (s.primary + off) % len(s.down)
		if !s.down[i] {
			s.primary = i
			break
		}
	}
	return s.primary
}

// Put implements kvstore.Store.
func (s *Store) Put(now time.Duration, key kvstore.Key, page []byte) (time.Duration, error) {
	return s.set.Put(now, key, page, (*fixed)(s))
}

// MultiPut implements kvstore.Store.
func (s *Store) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	return s.set.MultiPut(now, keys, pages, (*fixed)(s))
}

// Get implements kvstore.Store.
func (s *Store) Get(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
	return s.set.Get(now, key, (*fixed)(s))
}

// MultiGet implements kvstore.Store.
func (s *Store) MultiGet(now time.Duration, keys []kvstore.Key) ([][]byte, time.Duration, error) {
	return s.set.MultiGet(now, keys, (*fixed)(s))
}

// StartGet implements kvstore.Store. The split read goes to the primary when
// it holds the current version; otherwise (or on failure) the bottom half
// falls back to the synchronous failover sweep, so the caller sees one
// PendingGet either way.
func (s *Store) StartGet(now time.Duration, key kvstore.Key) kvstore.PendingGet {
	mask, live := s.set.keys[key]
	i := s.primary
	if !live || s.down[i] || mask&(1<<uint(i)) == 0 {
		data, done, err := s.Get(now, key)
		return kvstore.PendingGet{Key: key, Data: data, ReadyAt: done, Err: err}
	}
	s.set.stats.Gets++
	p := s.set.members[i].StartGet(now, key)
	if p.Err == nil {
		return p
	}
	// The primary's split read failed: pay its round trip, then sweep the
	// remaining members (with read-repair) as the same one read.
	mask, err := s.set.fail(i, key, mask, p.Err)
	data, done, err := s.set.read(p.ReadyAt, key, mask, (*fixed)(s), 1, err)
	return kvstore.PendingGet{Key: key, Data: data, ReadyAt: done, Err: err}
}

// Delete implements kvstore.Store.
func (s *Store) Delete(now time.Duration, key kvstore.Key) (time.Duration, error) {
	return s.set.Delete(now, key, (*fixed)(s))
}

// Resync back-fills every healthy member that lacks a key's current version
// in one sweep, returning the completion time and the copies repaired.
func (s *Store) Resync(now time.Duration) (time.Duration, int, error) {
	done, copied := s.set.Resync(now, (*fixed)(s))
	return done, copied, nil
}

// Stats implements kvstore.Store. BytesStored reports the first healthy
// member's payload as of the last write.
func (s *Store) Stats() kvstore.Stats { return s.set.Stats() }
