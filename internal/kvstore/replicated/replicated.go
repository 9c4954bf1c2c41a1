// Package replicated implements page replication across remote servers, one
// of the provider customisations the paper calls out as a benefit of
// handling paging in user space (§III: "Some examples are page compression
// or replication across remote servers").
//
// A replicated store fans every write out to N member stores. Writes
// complete when the slowest member acknowledges (the monitor's writeback is
// asynchronous, so this rarely touches the fault critical path, matching the
// paper's note that RAMCloud replication "only impacts key-value writes").
// Reads go to the fastest healthy member and fail over transparently when a
// member is down, errors, or misses, so a remote-memory server crash no
// longer kills every VM with pages on it.
//
// The wrapper is the single writer for its members, so it keeps an
// authoritative index mapping each live key to the set of members holding
// its current version. The index closes both halves of the recovery gap (a
// member that crashes misses every write during its downtime): a member that
// missed a key entirely is skipped on reads, and — the subtler half — a
// member that slept through an *overwrite* still holds the previous version
// and must not serve it. Two repair paths converge the members: read-repair
// back-fills stale members the moment a read finds the current value, and
// Resync sweeps the whole keyspace — the sequence a provider runs after
// healing a member and before it may become primary again.
package replicated

import (
	"errors"
	"fmt"
	"sort"
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

// Store is the replication wrapper.
type Store struct {
	members []kvstore.Store
	down    []bool
	// primary is the preferred read replica.
	primary int

	// keys is the authoritative live-key index: present means stored by at
	// least one successful write and not deleted, and the value is the
	// bitmask of members holding the CURRENT version. Members may
	// individually miss a key (crash recovery gap), hold a stale deleted
	// copy, or — the subtle case — hold a stale *previous version* after
	// sleeping through an overwrite; the index, not the member, decides both
	// existence and who may serve a read. The wrapper can maintain this
	// because it is the single writer for its members.
	keys map[kvstore.Key]uint64

	// spares is the batch of copies MultiPut hands to every live member but
	// the last, kept between calls: as long as the largest batch seen.
	spares [][]byte

	stats        kvstore.Stats
	failovers    uint64
	memberErrors uint64
	partialPuts  uint64
	readRepairs  uint64
	resyncs      uint64
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
	return &Store{
		members: members,
		down:    make([]bool, len(members)),
		keys:    make(map[kvstore.Key]uint64),
	}, nil
}

// Name implements kvstore.Store.
func (s *Store) Name() string {
	return fmt.Sprintf("replicated(%s×%d)", s.members[0].Name(), len(s.members))
}

// Fail marks member i crashed: reads fail over, writes skip it. Fail and
// Recover are the fault-injection surface for tests and demos.
func (s *Store) Fail(i int) error {
	if i < 0 || i >= len(s.members) {
		return fmt.Errorf("replicated: no member %d", i)
	}
	s.down[i] = true
	return nil
}

// Recover brings member i back. Pages written while it was down are missing
// there until read-repair or a Resync sweep back-fills them; in the interim,
// reads of those keys fail over to members that have them.
func (s *Store) Recover(i int) error {
	if i < 0 || i >= len(s.members) {
		return fmt.Errorf("replicated: no member %d", i)
	}
	s.down[i] = false
	return nil
}

// Failovers reports how many reads were served by a non-primary member.
func (s *Store) Failovers() uint64 { return s.failovers }

// MemberErrors reports member operations that returned a non-NotFound error
// and were skipped (the failure the wrapper masked).
func (s *Store) MemberErrors() uint64 { return s.memberErrors }

// ReadRepairs reports keys back-filled onto members that had missed them.
func (s *Store) ReadRepairs() uint64 { return s.readRepairs }

// PartialPuts reports writes that succeeded on some but not all healthy
// members (the skipped member will converge via repair).
func (s *Store) PartialPuts() uint64 { return s.partialPuts }

// Members reports the replication factor.
func (s *Store) Members() int { return len(s.members) }

// Primary reports the current preferred read replica.
func (s *Store) Primary() int { return s.primary }

// RotatePrimary advances the preferred read replica to the next member not
// marked down, returning the new primary index. The resilience layer calls
// this when the current primary keeps failing or limping (gray replica) —
// failures Fail/Recover bookkeeping never sees.
func (s *Store) RotatePrimary() int {
	for off := 1; off <= len(s.members); off++ {
		i := (s.primary + off) % len(s.members)
		if !s.down[i] {
			s.primary = i
			break
		}
	}
	return s.primary
}

// Put implements kvstore.Store: write to every healthy member, complete with
// the slowest. A member that errors is skipped — the write succeeds if any
// member holds the page (repair converges the rest), and fails only when no
// member accepted it.
func (s *Store) Put(now time.Duration, key kvstore.Key, page []byte) (time.Duration, error) {
	if err := kvstore.ValidatePage(page); err != nil {
		return now, err
	}
	s.stats.Puts++
	latest := now
	var wroteMask uint64
	skipped := 0
	var lastErr error
	for i, m := range s.members {
		if s.down[i] {
			continue
		}
		done, err := m.Put(now, key, page)
		if err != nil {
			s.memberErrors++
			skipped++
			lastErr = fmt.Errorf("replicated: member %d: %w", i, err)
			continue
		}
		wroteMask |= 1 << uint(i)
		if done > latest {
			latest = done
		}
	}
	if wroteMask == 0 {
		if lastErr != nil {
			return latest, lastErr
		}
		return now, ErrAllReplicasDown
	}
	if skipped > 0 {
		s.partialPuts++
	}
	// Replacing the mask wholesale demotes every member that missed this
	// overwrite: stale previous versions can no longer serve reads.
	s.keys[key] = wroteMask
	s.stats.BytesStored = s.healthyBytes()
	return latest, nil
}

// MultiPut implements kvstore.Store. Like Put, a batch survives any member
// failure as long as one member accepts it. A member may keep the buffers it
// is handed, so every live member but the last gets copies and the last gets
// the caller's own: R-1 page copies per page, not R.
func (s *Store) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	if len(keys) != len(pages) {
		return now, kvstore.ErrBadValue
	}
	for _, page := range pages {
		if err := kvstore.ValidatePage(page); err != nil {
			return now, err
		}
	}
	s.stats.MultiPuts++
	s.stats.Puts += uint64(len(keys))
	latest := now
	var wroteMask uint64
	skipped := 0
	var lastErr error
	last := len(s.members) - 1
	for last >= 0 && s.down[last] {
		last--
	}
	for i, m := range s.members {
		if s.down[i] {
			continue
		}
		batch := pages
		if i != last {
			batch = s.copies(pages)
		}
		done, err := m.MultiPut(now, keys, batch)
		if err != nil {
			s.memberErrors++
			skipped++
			lastErr = fmt.Errorf("replicated: member %d: %w", i, err)
			continue
		}
		wroteMask |= 1 << uint(i)
		if done > latest {
			latest = done
		}
	}
	if wroteMask == 0 {
		if lastErr != nil {
			return latest, lastErr
		}
		return now, ErrAllReplicasDown
	}
	if skipped > 0 {
		s.partialPuts++
	}
	for i, key := range keys {
		// The last member may have slept through the key's earlier writes and
		// so had nothing to hand back for it; the contract still owes one.
		if _, live := s.keys[key]; live && pages[i] == nil {
			pages[i] = make([]byte, kvstore.PageSize)
		}
		s.keys[key] = wroteMask
	}
	s.stats.BytesStored = s.healthyBytes()
	return latest, nil
}

// copies returns the batch to hand a member that is not to get the caller's
// buffers: pages copied into the spares, slot by slot. Whatever the member
// leaves in a slot — the version it replaced, nothing for a new key, or on
// error the copy itself — is the spare the next copy goes into.
func (s *Store) copies(pages [][]byte) [][]byte {
	for len(s.spares) < len(pages) {
		s.spares = append(s.spares, nil)
	}
	batch := s.spares[:len(pages)]
	for i, page := range pages {
		batch[i] = append(batch[i][:0], page...)
	}
	return batch
}

// Get implements kvstore.Store: read from the primary, failing over member
// by member on crash or error. Only members the index marks as holding the
// current version are consulted — a member that slept through a write (or
// an overwrite) is a repair target, never a source. Once a read succeeds,
// stale healthy members are back-filled with the value — read-repair — off
// the caller's critical path.
func (s *Store) Get(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
	s.stats.Gets++
	mask, live := s.keys[key]
	if !live {
		s.stats.Misses++
		return nil, now, kvstore.ErrNotFound
	}
	t := now
	anyUp := false
	var lastErr error
	for off := 0; off < len(s.members); off++ {
		i := (s.primary + off) % len(s.members)
		if s.down[i] {
			continue
		}
		anyUp = true
		if mask&(1<<uint(i)) == 0 {
			continue // stale or missing copy; repair target, not a source
		}
		data, done, err := s.members[i].Get(t, key)
		switch {
		case err == nil:
			if off != 0 {
				s.failovers++
			}
			s.repair(done, key, data, mask)
			return data, done, nil
		case errors.Is(err, kvstore.ErrNotFound):
			// The index says current but the member lost it; demote so
			// repair can restore it.
			mask &^= 1 << uint(i)
			s.keys[key] = mask
		default:
			s.memberErrors++
			lastErr = fmt.Errorf("replicated: member %d: %w", i, err)
		}
		t = done // the failed attempt's round trip is paid
	}
	if !anyUp {
		return nil, now, ErrAllReplicasDown
	}
	if lastErr != nil {
		return nil, t, lastErr
	}
	// The key is live but no up-to-date member is reachable: its holders are
	// down. Transient — recovery (plus repair) can resurrect it.
	return nil, t, fmt.Errorf("%w: %v", ErrUnavailable, key)
}

// repair back-fills key onto healthy members that lack the current version
// (absent or stale). The writes are issued at the read's completion time and
// are not awaited: like the monitor's writeback, repair I/O occupies the
// member devices asynchronously, off the faulting guest's critical path.
func (s *Store) repair(now time.Duration, key kvstore.Key, data []byte, mask uint64) {
	for i, m := range s.members {
		if s.down[i] || mask&(1<<uint(i)) != 0 {
			continue
		}
		if _, err := m.Put(now, key, data); err == nil {
			s.keys[key] |= 1 << uint(i)
			s.readRepairs++
		}
	}
}

// MultiGet implements kvstore.Store. Each live key is assigned to its
// preferred serving member (primary first, then the failover order), and
// every member serves its whole group in one amortised member MultiGet.
// Keys the batch path cannot serve — a member that errored, or one the
// index demoted mid-read — fall back to the per-key failover sweep, so the
// batch keeps the same masking guarantees as Get. A key absent from the
// index yields a nil entry; any failure no member could mask fails the
// whole batch, never silently turning an existing page into a miss.
func (s *Store) MultiGet(now time.Duration, keys []kvstore.Key) ([][]byte, time.Duration, error) {
	s.stats.MultiGets++
	s.stats.Gets += uint64(len(keys))
	out := make([][]byte, len(keys))
	if len(keys) == 0 {
		return out, now, nil
	}
	groups := make(map[int][]int)
	var order []int    // members in first-use order, deterministic
	var fallback []int // key indexes routed to the per-key sweep
	for idx, key := range keys {
		mask, live := s.keys[key]
		if !live {
			s.stats.Misses++
			continue
		}
		serving := -1
		for off := 0; off < len(s.members); off++ {
			i := (s.primary + off) % len(s.members)
			if s.down[i] || mask&(1<<uint(i)) == 0 {
				continue
			}
			serving = i
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
	for _, m := range order {
		idxs := groups[m]
		sub := make([]kvstore.Key, len(idxs))
		for j, idx := range idxs {
			sub[j] = keys[idx]
		}
		pages, done, err := s.members[m].MultiGet(now, sub)
		if done > latest {
			latest = done
		}
		if err != nil {
			s.memberErrors++
			fallback = append(fallback, idxs...)
			continue
		}
		if m != s.primary {
			s.failovers++
		}
		for j, idx := range idxs {
			key := keys[idx]
			if pages[j] == nil {
				// The index says current but the member lost it; demote the
				// copy and let the sweep (and repair) restore it.
				s.keys[key] &^= 1 << uint(m)
				fallback = append(fallback, idx)
				continue
			}
			out[idx] = pages[j]
			s.repair(done, key, pages[j], s.keys[key])
		}
	}
	for _, idx := range fallback {
		data, done, err := s.Get(latest, keys[idx])
		if done > latest {
			latest = done
		}
		if err != nil {
			return nil, latest, fmt.Errorf("replicated: multiget key %v: %w", keys[idx], err)
		}
		out[idx] = data
	}
	return out, latest, nil
}

// StartGet implements kvstore.Store. The split read goes to the primary when
// it holds the current version; otherwise (or on failure) the bottom half
// falls back to the synchronous failover sweep, so the caller sees one
// PendingGet either way.
func (s *Store) StartGet(now time.Duration, key kvstore.Key) kvstore.PendingGet {
	mask, live := s.keys[key]
	if !live {
		s.stats.Gets++
		s.stats.Misses++
		return kvstore.PendingGet{Key: key, ReadyAt: now, Err: kvstore.ErrNotFound}
	}
	i := s.primary
	if !s.down[i] && mask&(1<<uint(i)) != 0 {
		s.stats.Gets++
		p := s.members[i].StartGet(now, key)
		if p.Err == nil {
			return p
		}
		if !errors.Is(p.Err, kvstore.ErrNotFound) {
			s.memberErrors++
		}
		// The primary's split read failed: pay its round trip, then run the
		// synchronous sweep (with read-repair) over the remaining members.
		data, done, err := s.Get(p.ReadyAt, key)
		if err == nil {
			s.failovers++
		}
		return kvstore.PendingGet{Key: key, Data: data, ReadyAt: done, Err: err}
	}
	data, done, err := s.Get(now, key)
	return kvstore.PendingGet{Key: key, Data: data, ReadyAt: done, Err: err}
}

// Delete implements kvstore.Store. The key leaves the authoritative index
// first, so even if a down member keeps a stale copy, reads can never
// resurrect it.
func (s *Store) Delete(now time.Duration, key kvstore.Key) (time.Duration, error) {
	s.stats.Deletes++
	delete(s.keys, key)
	latest := now
	reached := 0
	var lastErr error
	for i, m := range s.members {
		if s.down[i] {
			continue
		}
		done, err := m.Delete(now, key)
		if err != nil {
			s.memberErrors++
			lastErr = fmt.Errorf("replicated: member %d: %w", i, err)
			continue
		}
		reached++
		if done > latest {
			latest = done
		}
	}
	if reached == 0 {
		if lastErr != nil {
			return latest, lastErr
		}
		// Every member is down: the tombstone is recorded in the index but
		// no member processed it. Report the outage so a resilient caller
		// can retry once a member recovers — returning success here would
		// let the monitor free the page while stale copies linger.
		return now, ErrAllReplicasDown
	}
	s.stats.BytesStored = s.healthyBytes()
	return latest, nil
}

// Resync sweeps the authoritative keyspace and back-fills every healthy
// member that is missing a key — the full-convergence pass a provider runs
// after a member recovers, closing the downtime gap in one shot instead of
// one read-repair at a time. It returns the completion time and the number
// of (member, key) copies repaired.
func (s *Store) Resync(now time.Duration) (time.Duration, int, error) {
	s.resyncs++
	keys := make([]kvstore.Key, 0, len(s.keys))
	for key := range s.keys {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	t := now
	repaired := 0
	for _, key := range keys {
		mask := s.keys[key]
		// Skip keys every healthy member already holds current.
		needs := false
		for i := range s.members {
			if !s.down[i] && mask&(1<<uint(i)) == 0 {
				needs = true
				break
			}
		}
		if !needs {
			continue
		}
		// Find a live current copy to clone from.
		var data []byte
		for i, m := range s.members {
			if s.down[i] || mask&(1<<uint(i)) == 0 {
				continue
			}
			got, done, err := m.Get(t, key)
			t = done
			if err == nil {
				data = got
				break
			}
			s.memberErrors++
		}
		if data == nil {
			// No reachable member holds the current version; nothing to
			// copy from. Leave the key in the index — a holder may recover.
			continue
		}
		for i, m := range s.members {
			if s.down[i] || mask&(1<<uint(i)) != 0 {
				continue
			}
			done, err := m.Put(t, key, data)
			if err != nil {
				s.memberErrors++
				continue
			}
			t = done
			s.keys[key] |= 1 << uint(i)
			repaired++
		}
	}
	s.stats.BytesStored = s.healthyBytes()
	return t, repaired, nil
}

// Stats implements kvstore.Store. BytesStored reports the primary healthy
// member's payload (logical bytes, not total replicated bytes).
func (s *Store) Stats() kvstore.Stats { return s.stats }

func (s *Store) healthyBytes() uint64 {
	for i, m := range s.members {
		if !s.down[i] {
			return m.Stats().BytesStored
		}
	}
	return 0
}
