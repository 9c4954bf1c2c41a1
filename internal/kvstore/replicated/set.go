package replicated

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"fluidmem/internal/kvstore"
)

// Set is the replica-set core: member stores, the index of which members
// hold each key's current version, and the mechanisms that keep that index
// true — the version-mask write, the hand-over batch write, the failover read
// with read-repair, the grouped batch read, the delete and the batched
// resync. Its owners differ only in the Placement they pass.
//
// The Set is the single writer for its members, so the index rather than a
// member decides existence and who may serve a read. A key is in the index
// from its first successful write until a delete of it reaches a member; its
// mask names the members holding the current version. A member that slept
// through an overwrite still holds the previous version and is simply not in
// the mask: a repair target, never a source.
//
// The zero Set is empty; Join adds members.
type Set struct {
	members []kvstore.Store
	keys    map[kvstore.Key]uint64
	stats   kvstore.Stats
	ctr     Counters

	// spares holds, per batch slot, the copy MultiPut hands a target that is
	// not a key's last. What the target leaves there — the version it
	// replaced, nothing for a new key, or on error the copy itself — is where
	// the next copy goes.
	spares [][]byte

	// Scratch reused across operations, so steady-state reads and
	// write-back flushes allocate nothing (DESIGN.md §14).
	order, targets, batch, last, subIdx, pos []int
	want                                     []uint64
	orig, subPages                           [][]byte
	subKeys                                  []kvstore.Key
	one                                      [1]kvstore.Key
}

// Counters is the work a Set did to mask failures and converge its members.
type Counters struct {
	// Failovers counts reads served by other than the first member of the
	// key's read order.
	Failovers uint64
	// MemberErrors counts member operations that failed with anything but
	// ErrNotFound and were skipped.
	MemberErrors uint64
	// PartialPuts counts writes that reached only some of their members.
	PartialPuts uint64
	// ReadRepairs counts copies back-filled by reads.
	ReadRepairs uint64
	// Rereplicated counts copies restored by resync sweeps.
	Rereplicated uint64
}

// Placement is what a Set's owner decides: which members should hold a key,
// in which order to try them, which are reachable now, and what to say when
// a key cannot be served. The Set alone changes the index.
type Placement interface {
	// Live reports whether member i can be reached now.
	Live(i int) bool
	// Targets appends the members that should hold key, preferred first.
	// Writes, repair and resync go to the live ones; a write that reaches
	// fewer than all of them is partial.
	Targets(buf []int, key kvstore.Key) []int
	// ReadOrder appends the members to try for key, preferred first; mask
	// holds the members with its current version.
	ReadOrder(buf []int, key kvstore.Key, mask uint64) []int
	// Refresh re-reads the placement after a write found no live member,
	// reporting whether it changed and routing is worth another try.
	Refresh() bool
	// Admit vets the members a write is about to touch, before anything
	// mutates; an error refuses the whole operation.
	Admit(members []int) error
	// Unavailable is the error for a live key no live member can serve.
	Unavailable(key kvstore.Key) error
	// Bytes is the BytesStored to report after a write.
	Bytes() uint64
}

// Join makes m member i.
func (c *Set) Join(i int, m kvstore.Store) {
	for len(c.members) <= i {
		c.members = append(c.members, nil)
	}
	c.members[i] = m
	if c.keys == nil {
		c.keys = make(map[kvstore.Key]uint64)
	}
}

// Drop removes member i, whose copies are gone, and demotes it from every
// key. A key left with no holder stays live: its page may survive on an
// unreachable member, so reads report Unavailable, not ErrNotFound.
func (c *Set) Drop(i int) {
	c.members[i] = nil
	for key, mask := range c.keys {
		c.keys[key] = mask &^ (1 << uint(i))
	}
}

// Sole reports the lowest key whose current version member i alone holds.
func (c *Set) Sole(i int) (kvstore.Key, bool) {
	var lowest kvstore.Key
	found := false
	for key, mask := range c.keys {
		if mask == 1<<uint(i) && (!found || key < lowest) {
			lowest, found = key, true
		}
	}
	return lowest, found
}

// Len reports the number of live keys.
func (c *Set) Len() int { return len(c.keys) }

// Stats reports the Set's traffic as one store.
func (c *Set) Stats() kvstore.Stats { return c.stats }

// Counters reports the Set's masking and convergence work.
func (c *Set) Counters() Counters { return c.ctr }

// memberError counts a member failure the Set masks and names the member.
func (c *Set) memberError(i int, err error) error {
	c.ctr.MemberErrors++
	return fmt.Errorf("replicated: member %d: %w", i, err)
}

// route returns the live members among key's targets and among holders, the
// last live target, and how many targets key has. If none is live the
// placement may refresh, and routing is tried again.
func (c *Set) route(key kvstore.Key, holders uint64, pl Placement) (live uint64, last, n int) {
	for {
		c.targets = pl.Targets(c.targets[:0], key)
		for _, i := range c.targets {
			if pl.Live(i) {
				live, last = live|1<<uint(i), i
			}
		}
		for m := holders; m != 0; m &= m - 1 {
			if i := bits.TrailingZeros64(m); pl.Live(i) {
				live |= 1 << uint(i)
			}
		}
		if live != 0 || !pl.Refresh() {
			return live, last, len(c.targets)
		}
	}
}

// ascending lists the members in mask into buf.
func ascending(buf []int, mask uint64) []int {
	for ; mask != 0; mask &= mask - 1 {
		buf = append(buf, bits.TrailingZeros64(mask))
	}
	return buf
}

// plan routes keys and admits the batch before anything mutates: each key's
// live targets (c.want) and last target (c.last), and every member touched
// (c.batch). partial reports a key routed to fewer members than it should
// have.
func (c *Set) plan(keys []kvstore.Key, pl Placement) (members uint64, partial bool, err error) {
	c.want, c.last = c.want[:0], c.last[:0]
	for _, key := range keys {
		want, last, n := c.route(key, 0, pl)
		if want == 0 {
			return 0, false, pl.Unavailable(key)
		}
		partial = partial || bits.OnesCount64(want) < n
		c.want, c.last = append(c.want, want), append(c.last, last)
		members |= want
	}
	c.batch = ascending(c.batch[:0], members)
	return members, partial, pl.Admit(c.batch)
}

// Put writes page to every live target of key and completes with the
// slowest. It succeeds if any member took the page, and replacing the mask
// wholesale demotes every member that missed this overwrite.
func (c *Set) Put(now time.Duration, key kvstore.Key, page []byte, pl Placement) (time.Duration, error) {
	if err := kvstore.ValidatePage(page); err != nil {
		return now, err
	}
	c.stats.Puts++
	c.one[0] = key
	members, partial, err := c.plan(c.one[:], pl)
	if err != nil {
		return now, err
	}
	latest := now
	var wrote uint64
	var lastErr error
	for _, i := range c.batch {
		done, err := c.members[i].Put(now, key, page)
		if err != nil {
			lastErr = c.memberError(i, err)
			continue
		}
		wrote |= 1 << uint(i)
		latest = max(latest, done)
	}
	if wrote == 0 {
		return latest, lastErr
	}
	if partial || wrote != members {
		c.ctr.PartialPuts++
	}
	c.keys[key] = wrote
	c.stats.BytesStored = pl.Bytes()
	return latest, nil
}

// MultiPut writes a batch, one member MultiPut per member touched in
// ascending order, all issued at now. A member may keep the buffers it is
// handed, so every target of a key but its last gets a copy and the last gets
// the caller's own: R-1 page copies per page, not R. The batch fails only if
// every member failed; a member that failed took nothing.
func (c *Set) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte, pl Placement) (time.Duration, error) {
	if len(keys) != len(pages) {
		return now, kvstore.ErrBadValue
	}
	for _, page := range pages {
		if err := kvstore.ValidatePage(page); err != nil {
			return now, err
		}
	}
	c.stats.MultiPuts++
	c.stats.Puts += uint64(len(keys))
	if len(keys) == 0 {
		return now, nil
	}
	members, partial, err := c.plan(keys, pl)
	if err != nil {
		return now, err
	}
	for len(c.spares) < len(keys) {
		c.spares = append(c.spares, nil)
	}
	// Copies come from the buffers as passed: a key's last target may be
	// called before its others, and by then the caller's slot holds what that
	// target handed back.
	c.orig = append(c.orig[:0], pages...)
	latest := now
	var wrote uint64
	var lastErr error
	for _, m := range c.batch {
		c.subKeys, c.subPages, c.subIdx = c.subKeys[:0], c.subPages[:0], c.subIdx[:0]
		for i, want := range c.want {
			if want&(1<<uint(m)) == 0 {
				continue
			}
			page := pages[i]
			if c.last[i] != m {
				c.spares[i] = append(c.spares[i][:0], c.orig[i]...)
				page = c.spares[i]
			}
			c.subKeys, c.subPages, c.subIdx = append(c.subKeys, keys[i]), append(c.subPages, page), append(c.subIdx, i)
		}
		done, err := c.members[m].MultiPut(now, c.subKeys, c.subPages)
		if err != nil {
			lastErr = c.memberError(m, err)
			continue
		}
		wrote |= 1 << uint(m)
		latest = max(latest, done)
		for j, i := range c.subIdx {
			if c.last[i] == m {
				pages[i] = c.subPages[j]
			} else {
				c.spares[i] = c.subPages[j]
			}
		}
	}
	if wrote == 0 {
		return latest, lastErr
	}
	if partial || wrote != members {
		c.ctr.PartialPuts++
	}
	for i, key := range keys {
		// The last target may have slept through the key's earlier writes and
		// so had nothing to hand back for it; the contract still owes one.
		if pages[i] == nil {
			if _, live := c.keys[key]; live {
				pages[i] = make([]byte, kvstore.PageSize)
			}
		}
		c.keys[key] = c.want[i] & wrote
	}
	c.stats.BytesStored = pl.Bytes()
	return latest, nil
}

// Get reads key through the failover sweep.
func (c *Set) Get(now time.Duration, key kvstore.Key, pl Placement) ([]byte, time.Duration, error) {
	c.stats.Gets++
	mask, live := c.keys[key]
	if !live {
		c.stats.Misses++
		return nil, now, kvstore.ErrNotFound
	}
	return c.read(now, key, mask, pl, 0, nil)
}

// read is the failover sweep of a live key: try the live current members of
// its read order from position from on, each attempt paying the last one's
// round trip, then read-repair. lastErr carries a failure from before.
func (c *Set) read(now time.Duration, key kvstore.Key, mask uint64, pl Placement, from int, lastErr error) ([]byte, time.Duration, error) {
	c.order = pl.ReadOrder(c.order[:0], key, mask)
	t := now
	for pos := from; pos < len(c.order); pos++ {
		i := c.order[pos]
		if !pl.Live(i) || mask&(1<<uint(i)) == 0 {
			continue // stale or missing copy: a repair target, not a source
		}
		data, done, err := c.members[i].Get(t, key)
		if err == nil {
			if pos != 0 {
				c.ctr.Failovers++
			}
			c.repair(done, key, data, mask, pl)
			return data, done, nil
		}
		var e error
		if mask, e = c.fail(i, key, mask, err); e != nil {
			lastErr = e
		}
		t = done
	}
	if lastErr != nil {
		return nil, t, lastErr
	}
	return nil, t, pl.Unavailable(key)
}

// fail demotes member i from key's mask if it lost its copy, so repair
// restores it; any other failure is counted and returned.
func (c *Set) fail(i int, key kvstore.Key, mask uint64, err error) (uint64, error) {
	if errors.Is(err, kvstore.ErrNotFound) {
		mask &^= 1 << uint(i)
		c.keys[key] = mask
		return mask, nil
	}
	return mask, c.memberError(i, err)
}

// repair back-fills key onto the live targets that lack its current version,
// issued at the read's completion and not awaited: like the monitor's
// write-back, it stays off the faulting guest's critical path.
func (c *Set) repair(now time.Duration, key kvstore.Key, data []byte, mask uint64, pl Placement) {
	c.targets = pl.Targets(c.targets[:0], key)
	for _, i := range c.targets {
		if !pl.Live(i) || mask&(1<<uint(i)) != 0 {
			continue
		}
		if _, err := c.members[i].Put(now, key, data); err == nil {
			c.keys[key] |= 1 << uint(i)
			c.ctr.ReadRepairs++
		}
	}
}

// MultiGet reads each live key's group — the first live current member of
// its read order — in one member MultiGet, groups in first-use order. Keys a
// group cannot serve fall back to the failover sweep. A key absent from the
// index yields a nil entry; a failure no member could mask fails the batch.
func (c *Set) MultiGet(now time.Duration, keys []kvstore.Key, pl Placement) ([][]byte, time.Duration, error) {
	c.stats.MultiGets++
	c.stats.Gets += uint64(len(keys))
	out := make([][]byte, len(keys))
	if len(keys) == 0 {
		return out, now, nil
	}
	groups := make(map[int][]int)
	var serving []int  // members in first-use order, deterministic
	var fallback []int // key indexes routed to the sweep
	c.pos = c.pos[:0]
	for idx, key := range keys {
		pos := -1
		if mask, live := c.keys[key]; !live {
			c.stats.Misses++
		} else {
			c.order = pl.ReadOrder(c.order[:0], key, mask)
			for p, i := range c.order {
				if pl.Live(i) && mask&(1<<uint(i)) != 0 {
					pos = p
					break
				}
			}
			if pos < 0 {
				fallback = append(fallback, idx)
			} else {
				m := c.order[pos]
				if _, seen := groups[m]; !seen {
					serving = append(serving, m)
				}
				groups[m] = append(groups[m], idx)
			}
		}
		c.pos = append(c.pos, pos)
	}
	latest := now
	for _, m := range serving {
		idxs := groups[m]
		sub := make([]kvstore.Key, len(idxs))
		for j, idx := range idxs {
			sub[j] = keys[idx]
		}
		pages, done, err := c.members[m].MultiGet(now, sub)
		latest = max(latest, done)
		if err != nil {
			c.ctr.MemberErrors++
			fallback = append(fallback, idxs...)
			continue
		}
		for j, idx := range idxs {
			key := keys[idx]
			if pages[j] == nil {
				// The index says current but the member lost it; demote the
				// copy and let the sweep (and repair) restore it.
				c.keys[key] &^= 1 << uint(m)
				fallback = append(fallback, idx)
				continue
			}
			if c.pos[idx] != 0 {
				c.ctr.Failovers++
			}
			out[idx] = pages[j]
			c.repair(done, key, pages[j], c.keys[key], pl)
		}
	}
	for _, idx := range fallback {
		data, done, err := c.read(latest, keys[idx], c.keys[keys[idx]], pl, 0, nil)
		latest = max(latest, done)
		if err != nil {
			return nil, latest, fmt.Errorf("replicated: multiget key %v: %w", keys[idx], err)
		}
		out[idx] = data
	}
	return out, latest, nil
}

// Delete removes key from every live member that should hold it or holds its
// current version. An error means no member was reached and nothing changed,
// so a retry is safe; once one is, the key leaves the index and a stale copy
// elsewhere can never resurrect. A key that is not live succeeds even with
// nobody reachable.
func (c *Set) Delete(now time.Duration, key kvstore.Key, pl Placement) (time.Duration, error) {
	c.stats.Deletes++
	mask, live := c.keys[key]
	targets, _, _ := c.route(key, mask, pl)
	if targets == 0 && live {
		return now, pl.Unavailable(key)
	}
	c.batch = ascending(c.batch[:0], targets)
	if err := pl.Admit(c.batch); err != nil {
		return now, err
	}
	latest := now
	reached := 0
	var lastErr error
	for _, i := range c.batch {
		done, err := c.members[i].Delete(now, key)
		if err != nil {
			lastErr = c.memberError(i, err)
			continue
		}
		reached++
		latest = max(latest, done)
	}
	if reached == 0 && lastErr != nil {
		return latest, lastErr
	}
	delete(c.keys, key)
	c.stats.BytesStored = pl.Bytes()
	return latest, nil
}

// Resync copies every key to its live targets lacking the current version,
// from the lowest live holder, batched per (source, destination) pair in
// ascending order: one source MultiGet then one destination MultiPut, issued
// at now. It returns the completion time and the copies restored.
func (c *Set) Resync(now time.Duration, pl Placement) (time.Duration, int) {
	type move struct {
		src, dst int
		key      kvstore.Key
	}
	var moves []move
	for key, mask := range c.keys {
		src := -1
		for m := mask; m != 0 && src < 0; m &= m - 1 {
			if i := bits.TrailingZeros64(m); pl.Live(i) {
				src = i
			}
		}
		c.targets = pl.Targets(c.targets[:0], key)
		for _, dst := range c.targets {
			if src >= 0 && mask&(1<<uint(dst)) == 0 && pl.Live(dst) {
				moves = append(moves, move{src, dst, key})
			}
		}
	}
	slices.SortFunc(moves, func(a, b move) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst), cmp.Compare(a.key, b.key))
	})
	latest := now
	copied := 0
	for len(moves) > 0 {
		pr := moves[0]
		var keys []kvstore.Key
		for len(moves) > 0 && moves[0].src == pr.src && moves[0].dst == pr.dst {
			keys, moves = append(keys, moves[0].key), moves[1:]
		}
		pages, readDone, err := c.members[pr.src].MultiGet(now, keys)
		if err != nil {
			c.ctr.MemberErrors++
			continue
		}
		held, copies := keys[:0], pages[:0]
		for j, page := range pages {
			if page != nil {
				held, copies = append(held, keys[j]), append(copies, append([]byte(nil), page...))
			}
		}
		writeDone, err := c.members[pr.dst].MultiPut(readDone, held, copies)
		if err != nil {
			c.ctr.MemberErrors++
			continue
		}
		latest = max(latest, writeDone)
		for _, key := range held {
			c.keys[key] |= 1 << uint(pr.dst)
		}
		copied += len(held)
	}
	c.ctr.Rereplicated += uint64(copied)
	c.stats.BytesStored = pl.Bytes()
	return latest, copied
}
