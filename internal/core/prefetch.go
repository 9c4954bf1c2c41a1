package core

import (
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/trace"
)

// This file implements sequential readahead, an optional monitor extension
// in the spirit of the paper's §V-B optimisations: a store read for page P
// carries the next pages of the same region in the same MultiGet round trip,
// and they are installed while the guest is already running — off the fault
// critical path (overlappedRead in dataplane.go is the one caller).
// Sequential scans then find their next pages resident; random workloads pay
// extra store traffic for unused pages, which is why the kernel's swap
// readahead is disabled in the paper's configuration and why this stays
// opt-in (ablation A6 quantifies both sides).

// prefetchCandidate is one readahead page picked by gatherPrefetch.
type prefetchCandidate struct {
	addr uint64
	key  kvstore.Key
	// data is the page as the MultiGet returned it (a reference to store
	// memory); nil on a store miss and for a queued candidate.
	data []byte
	// queued marks a page whose current bytes sat on the write list when the
	// window was gathered: the store never saw them, so the key stays out of
	// the MultiGet, the install takes the frame off the list itself, and
	// must not treat it as store-backed (clean tracking would drop dirty
	// data).
	queued bool
}

// gatherPrefetch selects up to cfg.PrefetchPages pages following addr that
// are previously seen but not resident. Selection depends only on logical
// monitor state (seen set, LRU membership, write-list contents) — never on
// virtual time — so the candidate set, and therefore the store traffic it
// triggers, is identical for every worker count. In particular a page whose
// write is merely in flight is still read: the store's contents were updated
// when the flush was submitted, so the read observes fresh data. Nothing
// leaves the write list here: a queued candidate is only noted, because the
// installs may stop before reaching it and the list holds its only copy.
func (m *Monitor) gatherPrefetch(addr uint64, part kvstore.PartitionID) []prefetchCandidate {
	region := m.pages.region(addr)
	// The candidate list lives in the data arena: valid until the next
	// fault's gather, which is after the caller is done with it.
	cands := m.scratch.cands[:0]
	for i := 1; i <= m.cfg.PrefetchPages; i++ {
		next := addr + uint64(i)*PageSize
		if next-region.start >= region.length {
			break
		}
		// One entry and its record hold every fact the choice needs. A page
		// never seen has nothing to read, and a resident one needs nothing.
		// A zero-elided page's store copy is stale (the zero bitmap is
		// authoritative), and so is the store copy of a page parked in the
		// compressed tier; prefetching either would install dead data. Skip
		// it — its own demand fault resolves locally.
		e := region.entries[(next-region.start)>>pageShift]
		state := m.pages.recs[e&entSlot].state
		if e&entSeen == 0 || e&entZero != 0 || state&(recLRU|recPooled) != 0 {
			continue
		}
		cands = append(cands, prefetchCandidate{
			addr:   next,
			key:    kvstore.MakeKey(next, part),
			queued: state&recQueued != 0,
		})
	}
	m.scratch.cands = cands
	return cands
}

// startWindowGet is the windowed top half of overlappedRead: one MultiGet at
// issue for the demand key and every window page the store holds current.
// The demand page comes back as a PendingGet, exactly as StartGet would hand
// it over; the window's pages land in their candidates. The request vector
// lives in the data arena, reused across faults.
func (m *Monitor) startWindowGet(issue time.Duration, addr uint64, key kvstore.Key) (kvstore.PendingGet, []prefetchCandidate) {
	window := m.gatherPrefetch(addr, key.Partition())
	keys := append(m.scratch.keys[:0], key)
	for _, c := range window {
		if !c.queued {
			keys = append(keys, c.key)
		}
	}
	m.scratch.keys = keys
	pages, readDone, err := m.cfg.Store.MultiGet(issue, keys)
	pending := kvstore.PendingGet{Key: key, ReadyAt: readDone, Err: err}
	if err != nil {
		return pending, nil
	}
	if pending.Data = pages[0]; pending.Data == nil {
		pending.Err = kvstore.ErrNotFound
	}
	pages = pages[1:]
	for i := range window {
		if !window[i].queued {
			window[i].data, pages = pages[0], pages[1:] // nil stays nil on a store miss
		}
	}
	return pending, window
}

// installPrefetched installs one readahead page, evicting to make room but
// never displacing the demand page the guest is about to retry — readahead
// must never displace demand, so stop=true tells the caller to cease
// prefetching when the demand page is the eviction candidate. A page that
// cannot be installed is skipped and faults normally later.
func (m *Monitor) installPrefetched(t time.Duration, demand uint64, c prefetchCandidate) (time.Duration, bool) {
	if c.data == nil && !c.queued {
		return t, false // store miss
	}
	if oldest, ok := m.lru.Oldest(); ok && oldest == demand && m.lru.Len() >= m.cfg.LRUCapacity {
		return t, true
	}
	installStart := t
	t, err := m.makeRoom(t, m.cfg.LRUCapacity-1)
	if err != nil {
		return t, true
	}
	data, owned := c.data, false
	if c.queued {
		// Only now, with room made and the install certain, does the page
		// leave the write list. The evictions above may have flushed it
		// instead: then the store has it and nothing was read.
		var ok bool
		if data, owned, ok = m.wb.Steal(t, c.key); !ok {
			return t, false
		}
	}
	_, done, err := m.install(t, c.addr, data, frameOf(owned))
	switch {
	case err != nil && c.queued:
		// The stolen frame is the page's only copy: back on the list it goes.
		_, err = m.enqueue(t, c.key, data, owned)
		return t, err != nil
	case err != nil:
		return t, false
	}
	t = done
	m.lru.Insert(c.addr)
	m.stats.Prefetches++
	m.tr.Emit(trace.EvPrefetch, m.workerOf(c.addr), c.addr, installStart, t-installStart, "")
	return t, false
}
