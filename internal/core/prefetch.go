package core

import (
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/trace"
)

// This file implements sequential prefetching, an optional monitor extension
// in the spirit of the paper's §V-B optimisations: after resolving a store
// read for page P, the monitor pipelines reads for the next pages of the
// same region while the guest is already running — off the fault critical
// path. Sequential scans then find their next pages resident; random
// workloads pay extra store traffic for unused pages, which is why the
// kernel's swap readahead is disabled in the paper's configuration and why
// this stays opt-in (ablation A6 quantifies both sides).

// prefetchCandidate is one readahead page picked by gatherPrefetch.
type prefetchCandidate struct {
	addr uint64
	key  kvstore.Key
	data []byte // non-nil when resolved from the write list (steal)
	// stolen marks data that came from the write list rather than the
	// store: the store never saw those bytes, so the install must not be
	// treated as store-backed (clean tracking would drop dirty data).
	stolen bool
}

// gatherPrefetch selects up to cfg.PrefetchPages pages following addr that
// are previously seen but not resident; candidates sitting on the pending
// write list are stolen immediately. Selection depends only on logical
// monitor state (seen set, LRU membership, write-list contents) — never on
// virtual time — so the candidate set, and therefore the store traffic it
// triggers, is identical for every worker count. In particular a page whose
// write is merely in flight is still read: the store's contents were updated
// when the flush was submitted, so the read observes fresh data.
func (m *Monitor) gatherPrefetch(now time.Duration, addr uint64, part kvstore.PartitionID) []prefetchCandidate {
	region := m.pages.region(addr)
	if region == nil {
		return nil
	}
	// The candidate list lives in the data arena: valid until the next
	// fault's gather, which is after the caller is done with it.
	cands := m.scratch.cands[:0]
	for i := 1; i <= m.cfg.PrefetchPages; i++ {
		next := addr + uint64(i)*PageSize
		if next-region.start >= region.length {
			break
		}
		if !m.pages.seen(next) || m.lru.Contains(next) {
			continue
		}
		c := prefetchCandidate{addr: next, key: kvstore.MakeKey(next, part)}
		// A zero-elided page's store copy is stale (the zero bitmap is
		// authoritative); prefetching it would install dead data. Skip it —
		// its own demand fault resolves via UFFDIO_ZEROPAGE.
		if m.wb.HasZero(c.key) {
			continue
		}
		if m.cfg.AsyncWrite {
			if data, ok := m.wb.Steal(now, c.key); ok {
				c.data = data
				c.stolen = true
			}
		}
		cands = append(cands, c)
	}
	m.scratch.cands = cands
	return cands
}

// installPrefetched installs one readahead page, evicting to make room but
// never displacing the demand page the guest is about to retry — readahead
// must never displace demand, so stop=true tells the caller to cease
// prefetching when the demand page is the eviction candidate. storeBacked
// arms clean tracking for pages whose bytes came from the store (not from a
// write-list steal).
func (m *Monitor) installPrefetched(t time.Duration, demand, addr uint64, data []byte, storeBacked bool) (time.Duration, bool) {
	if oldest, ok := m.lru.Oldest(); ok && oldest == demand && m.lru.Len() >= m.cfg.LRUCapacity {
		return t, true
	}
	installStart := t
	var err error
	for m.lru.Len() >= m.cfg.LRUCapacity {
		if t, err = m.evictOne(t, false); err != nil {
			return t, true
		}
	}
	done, err := m.fd.Copy(t, addr, data)
	if err != nil {
		return t, false // skip this page; it will fault normally
	}
	t = done
	m.epoch++
	if storeBacked {
		if t, err = m.markClean(t, addr); err != nil {
			return t, false
		}
	}
	m.lru.Insert(addr)
	m.stats.Prefetches++
	m.tr.Emit(trace.EvPrefetch, m.workerOf(addr), addr, installStart, t-installStart, "")
	return t, false
}

// prefetch pulls up to cfg.PrefetchPages pages following addr into the VM
// with pipelined per-page split reads. It runs on the fault's worker after
// the faulting vCPU has been woken; t is the worker-free time and the return
// value replaces it. (With cfg.BatchReads the monitor instead folds the same
// candidate set into the demand fault's MultiGet — see resolveBatchedRead.)
func (m *Monitor) prefetch(t time.Duration, addr uint64, part kvstore.PartitionID) time.Duration {
	cands := m.gatherPrefetch(t, addr, part)
	if len(cands) == 0 {
		return t
	}
	// Top halves: pipeline every read first. The handle vector is arena
	// scratch, parallel to cands; a candidate with data already stolen from
	// the write list needs no read, so its slot stays zero and the bottom
	// half keys off c.data instead.
	gets := m.scratch.gets
	if cap(gets) < len(cands) {
		gets = make([]kvstore.PendingGet, len(cands))
	}
	gets = gets[:len(cands)]
	m.scratch.gets = gets
	for i, c := range cands {
		if c.data != nil {
			continue // stolen from the write list; no store read needed
		}
		if !m.storeLocal {
			t += m.cfg.MonitorOps.AsyncIssue.Sample(m.rng)
		}
		gets[i] = m.cfg.Store.StartGet(t, c.key)
	}
	// Bottom halves: install in order.
	for i, c := range cands {
		data := c.data
		if data == nil {
			var err error
			data, t, err = gets[i].Wait(t)
			if err != nil {
				// A prefetch miss is harmless: the page will fault normally.
				continue
			}
		}
		var stop bool
		t, stop = m.installPrefetched(t, addr, c.addr, data, !c.stolen)
		if stop {
			break
		}
	}
	// Stolen frames are ours; UFFDIO_COPY copied what it installed.
	for _, c := range cands {
		if c.stolen {
			m.fd.Recycle(c.data)
		}
	}
	return t
}
