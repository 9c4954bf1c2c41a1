package core

// lruList is the monitor's resident-page list (§V-A), partitioned into
// per-shard segments for the multi-worker fault pipeline. Its semantics
// follow the paper exactly: a page enters the list when the monitor sees it
// (first access, or re-fault after an eviction) and the internal ordering
// never changes afterwards — the list is *not* reordered on guest accesses,
// because resident accesses never reach the monitor. Evictions come from
// the top (globally oldest entry). The paper calls out this insertion-order
// behaviour as a limitation versus the kernel's active/inactive lists
// (§VI-D1).
//
// Sharding is a lock-striping structure, not a policy change: each worker's
// pages live in their own segment (one lock domain in a real monitor), but
// every insert is stamped with a global sequence number and Oldest selects
// the minimum across segment heads. Segment heads are each their segment's
// oldest entry, so the global minimum over heads IS the globally oldest
// page — eviction order is bit-for-bit identical to the single-segment list
// for ANY shard count, and the capacity budget the monitor enforces with
// Len stays global. The property tests in lru_test.go assert both.
//
// The list is intrusive: a resident page's node is its record in the page
// table (see pagetable.go), found by indexing the page's region, and the
// links are slab indices. Membership tests and removals hash nothing, and the
// steady-state fault path (evict one, insert one) allocates nothing.
type lruList struct {
	pages   *pageTable
	shards  []recList // head is the segment's oldest entry
	idx     shardIndexer
	nextSeq uint64
	n       int
}

// newShardedLRU returns an empty list over pages, split into the given number
// of segments (minimum one), sharded by page number.
func newShardedLRU(pages *pageTable, shards int) *lruList {
	if shards < 1 {
		shards = 1
	}
	return &lruList{
		pages:  pages,
		shards: make([]recList, shards),
		idx:    newShardIndexer(shards),
	}
}

// Len reports tracked pages across all segments.
func (l *lruList) Len() int { return l.n }

// Insert appends addr at the bottom (newest) position of its segment.
// Inserting an address already present is a bug in the monitor and panics
// loudly.
func (l *lruList) Insert(addr uint64) {
	e, id := l.pages.byAddr(addr, true)
	i := l.pages.track(e, id)
	n := &l.pages.recs[i]
	if n.state&recLRU != 0 {
		panic("core: page already in LRU list")
	}
	l.nextSeq++
	n.state |= recLRU
	n.addr, n.seq = addr, l.nextSeq
	l.shards[l.idx.index(addr)].pushBack(l.pages.recs, lruLink, i)
	l.n++
}

// Contains reports membership.
func (l *lruList) Contains(addr uint64) bool {
	e, _ := l.pages.byAddr(addr, false)
	return l.pages.recs[*e&entSlot].state&recLRU != 0
}

// Oldest returns the eviction candidate: the entry with the globally
// minimum insertion stamp, found among the segment heads.
func (l *lruList) Oldest() (uint64, bool) {
	var best *pageRec
	for i := range l.shards {
		head := l.shards[i].head
		if head == 0 {
			continue
		}
		if front := &l.pages.recs[head]; best == nil || front.seq < best.seq {
			best = front
		}
	}
	if best == nil {
		return 0, false
	}
	return best.addr, true
}

// Remove deletes addr, reporting whether it was present.
func (l *lruList) Remove(addr uint64) bool {
	e, _ := l.pages.byAddr(addr, false)
	i := *e & entSlot
	n := &l.pages.recs[i]
	if n.state&recLRU == 0 {
		return false
	}
	l.shards[l.idx.index(addr)].remove(l.pages.recs, lruLink, i)
	n.state &^= recLRU
	l.n--
	l.pages.release(e, i)
	return true
}

// Addrs returns the resident page addresses, segment by segment.
func (l *lruList) Addrs() []uint64 {
	addrs := make([]uint64, 0, l.n)
	for _, s := range l.shards {
		for i := s.head; i != 0; i = l.pages.recs[i].link[lruLink].next {
			addrs = append(addrs, l.pages.recs[i].addr)
		}
	}
	return addrs
}
