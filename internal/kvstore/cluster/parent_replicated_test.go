package cluster

// parentReplicated is a test-side copy of replicated.Store as it was before
// it became a fixed-membership owner of replicated.Set.
// TestReplicaSetMatchesParent runs it in lockstep with replicated.Store. The
// copy is verbatim but for renamed types and the edits marked "MODEL:", each
// a deliberate difference between the parent and the shared core.

import (
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/replicated"
)

// parentReplicated is the replication wrapper.
type parentReplicated struct {
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
}

var _ kvstore.Store = (*parentReplicated)(nil)

// New wraps the member stores. members[0] is the initial read primary.
func newParentReplicated(members ...kvstore.Store) (*parentReplicated, error) {
	if len(members) == 0 {
		return nil, replicated.ErrNoReplicas
	}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("replicated: member %d is nil", i)
		}
	}
	if len(members) > 64 {
		return nil, fmt.Errorf("replicated: %d members exceeds the 64-member index", len(members))
	}
	return &parentReplicated{
		members: members,
		down:    make([]bool, len(members)),
		keys:    make(map[kvstore.Key]uint64),
	}, nil
}

// Name implements kvstore.Store.
func (s *parentReplicated) Name() string {
	return fmt.Sprintf("replicated(%s×%d)", s.members[0].Name(), len(s.members))
}

// Fail marks member i crashed: reads fail over, writes skip it. Fail and
// Recover are the fault-injection surface for tests and demos.
func (s *parentReplicated) Fail(i int) error {
	if i < 0 || i >= len(s.members) {
		return fmt.Errorf("replicated: no member %d", i)
	}
	s.down[i] = true
	return nil
}

// Recover brings member i back. Pages written while it was down are missing
// there until read-repair or a Resync sweep back-fills them; in the interim,
// reads of those keys fail over to members that have them.
func (s *parentReplicated) Recover(i int) error {
	if i < 0 || i >= len(s.members) {
		return fmt.Errorf("replicated: no member %d", i)
	}
	s.down[i] = false
	return nil
}

// Failovers reports how many reads were served by a non-primary member.
func (s *parentReplicated) Failovers() uint64 { return s.failovers }

// MemberErrors reports member operations that returned a non-NotFound error
// and were skipped (the failure the wrapper masked).
func (s *parentReplicated) MemberErrors() uint64 { return s.memberErrors }

// ReadRepairs reports keys back-filled onto members that had missed them.
func (s *parentReplicated) ReadRepairs() uint64 { return s.readRepairs }

// PartialPuts reports writes that succeeded on some but not all healthy
// members (the skipped member will converge via repair).
func (s *parentReplicated) PartialPuts() uint64 { return s.partialPuts }

// Members reports the replication factor.
func (s *parentReplicated) Members() int { return len(s.members) }

// Primary reports the current preferred read replica.
func (s *parentReplicated) Primary() int { return s.primary }

// RotatePrimary advances the preferred read replica to the next member not
// marked down, returning the new primary index. The resilience layer calls
// this when the current primary keeps failing or limping (gray replica) —
// failures Fail/Recover bookkeeping never sees.
func (s *parentReplicated) RotatePrimary() int {
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
func (s *parentReplicated) Put(now time.Duration, key kvstore.Key, page []byte) (time.Duration, error) {
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
		return now, replicated.ErrAllReplicasDown
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
func (s *parentReplicated) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
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
	// MODEL: an empty batch is done, the pool's rule. The parent called every
	// live member with it, and failed with ErrAllReplicasDown when none was.
	if len(keys) == 0 {
		return now, nil
	}
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
		return now, replicated.ErrAllReplicasDown
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
func (s *parentReplicated) copies(pages [][]byte) [][]byte {
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
func (s *parentReplicated) Get(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
	s.stats.Gets++
	return s.get(now, key)
}

// MODEL: get is Get's sweep without its count, for MultiGet's fallback.
func (s *parentReplicated) get(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
	if _, live := s.keys[key]; !live {
		s.stats.Misses++
		return nil, now, kvstore.ErrNotFound
	}
	return s.sweep(now, key, 0, nil)
}

// MODEL: sweep is get's loop from offset from on, carrying lastErr, for
// StartGet's fallback.
func (s *parentReplicated) sweep(now time.Duration, key kvstore.Key, from int, lastErr error) ([]byte, time.Duration, error) {
	mask := s.keys[key]
	t := now
	anyUp := from > 0
	for off := from; off < len(s.members); off++ {
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
		return nil, now, replicated.ErrAllReplicasDown
	}
	if lastErr != nil {
		return nil, t, lastErr
	}
	// The key is live but no up-to-date member is reachable: its holders are
	// down. Transient — recovery (plus repair) can resurrect it.
	return nil, t, fmt.Errorf("%w: %v", replicated.ErrUnavailable, key)
}

// repair back-fills key onto healthy members that lack the current version
// (absent or stale). The writes are issued at the read's completion time and
// are not awaited: like the monitor's writeback, repair I/O occupies the
// member devices asynchronously, off the faulting guest's critical path.
func (s *parentReplicated) repair(now time.Duration, key kvstore.Key, data []byte, mask uint64) {
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
func (s *parentReplicated) MultiGet(now time.Duration, keys []kvstore.Key) ([][]byte, time.Duration, error) {
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
		for j, idx := range idxs {
			key := keys[idx]
			if pages[j] == nil {
				// The index says current but the member lost it; demote the
				// copy and let the sweep (and repair) restore it.
				s.keys[key] &^= 1 << uint(m)
				fallback = append(fallback, idx)
				continue
			}
			// MODEL: a failover per key served by other than the primary, as
			// Get counts one. The parent counted one per member batch.
			if m != s.primary {
				s.failovers++
			}
			out[idx] = pages[j]
			s.repair(done, key, pages[j], s.keys[key])
		}
	}
	for _, idx := range fallback {
		// MODEL: the fallback sweep does not count its key a second time; the
		// batch already did. The parent called Get.
		data, done, err := s.get(latest, keys[idx])
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
func (s *parentReplicated) StartGet(now time.Duration, key kvstore.Key) kvstore.PendingGet {
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
		// MODEL: fix 2 — the primary's failure is handled once and the sweep
		// goes on from the next member, within the one Get already counted.
		// The parent called Get, which counted the read again and retried
		// the primary.
		var lastErr error
		if errors.Is(p.Err, kvstore.ErrNotFound) {
			mask &^= 1 << uint(i)
			s.keys[key] = mask
		} else {
			s.memberErrors++
			lastErr = fmt.Errorf("replicated: member %d: %w", i, p.Err)
		}
		data, done, err := s.sweep(p.ReadyAt, key, 1, lastErr)
		return kvstore.PendingGet{Key: key, Data: data, ReadyAt: done, Err: err}
	}
	data, done, err := s.Get(now, key)
	return kvstore.PendingGet{Key: key, Data: data, ReadyAt: done, Err: err}
}

// Delete implements kvstore.Store. The key leaves the authoritative index
// first, so even if a down member keeps a stale copy, reads can never
// resurrect it.
func (s *parentReplicated) Delete(now time.Duration, key kvstore.Key) (time.Duration, error) {
	s.stats.Deletes++
	// MODEL: fix 1 — the index changes only once a member was reached, and a
	// key that is not live succeeds with every member down. The parent
	// deleted the key first.
	_, live := s.keys[key]
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
		if live {
			return now, replicated.ErrAllReplicasDown
		}
	}
	delete(s.keys, key)
	s.stats.BytesStored = s.healthyBytes()
	return latest, nil
}

// MODEL: Resync is not copied. It took the pool's batched
// (source, destination) shape in the shared core, so its times differ from
// the parent's per-key sweep by design, and the op stream does not call it.

// Stats implements kvstore.Store. BytesStored reports the primary healthy
// member's payload (logical bytes, not total replicated bytes).
func (s *parentReplicated) Stats() kvstore.Stats { return s.stats }

func (s *parentReplicated) healthyBytes() uint64 {
	for i, m := range s.members {
		if !s.down[i] {
			return m.Stats().BytesStored
		}
	}
	return 0
}
