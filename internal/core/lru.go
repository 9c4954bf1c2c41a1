package core

// lruList is the monitor's resident-page list (§V-A). Its semantics follow
// the paper exactly: a page enters the list when the monitor sees it (first
// access, or re-fault after an eviction) and the internal ordering never
// changes afterwards — the list is *not* reordered on guest accesses,
// because resident accesses never reach the monitor. Evictions come from
// the top (oldest entry). The paper calls out this insertion-order
// behaviour as a limitation versus the kernel's active/inactive lists
// (§VI-D1).
//
// There is one list whatever the fault pipeline's width: the width is a set
// of virtual-time horizons (Config.Workers), not a partition of the
// monitor's state, so the eviction order and the capacity budget the monitor
// enforces with Len are the same for every worker count.
//
// The list is intrusive: a resident page's node is its record in the page
// table (see pagetable.go), found by indexing the page's region, and the
// links are slab indices. Membership tests and removals hash nothing, and the
// steady-state fault path (evict one, insert one) allocates nothing.
type lruList struct {
	pages *pageTable
	list  recList // in insertion order: head is the oldest entry
	n     int
}

// newLRU returns an empty list over pages.
func newLRU(pages *pageTable) *lruList { return &lruList{pages: pages} }

// Len reports tracked pages.
func (l *lruList) Len() int { return l.n }

// Insert appends addr at the bottom (newest) position. Inserting an address
// already present is a bug in the monitor and panics loudly.
func (l *lruList) Insert(addr uint64) {
	e, id := l.pages.byAddr(addr, true)
	i := l.pages.track(e, id)
	n := &l.pages.recs[i]
	if n.state&recLRU != 0 {
		panic("core: page already in LRU list")
	}
	n.state |= recLRU
	n.addr = addr
	l.list.pushBack(l.pages.recs, lruLink, i)
	l.n++
}

// Contains reports membership.
func (l *lruList) Contains(addr uint64) bool {
	e, _ := l.pages.byAddr(addr, false)
	return l.pages.recs[*e&entSlot].state&recLRU != 0
}

// Oldest returns the eviction candidate: the head of the list.
func (l *lruList) Oldest() (uint64, bool) {
	if l.list.head == 0 {
		return 0, false
	}
	return l.pages.recs[l.list.head].addr, true
}

// Remove deletes addr, reporting whether it was present.
func (l *lruList) Remove(addr uint64) bool {
	e, _ := l.pages.byAddr(addr, false)
	i := *e & entSlot
	n := &l.pages.recs[i]
	if n.state&recLRU == 0 {
		return false
	}
	l.list.remove(l.pages.recs, lruLink, i)
	n.state &^= recLRU
	l.n--
	l.pages.release(e, i)
	return true
}

// Addrs returns the resident page addresses, oldest first.
func (l *lruList) Addrs() []uint64 {
	addrs := make([]uint64, 0, l.n)
	for i := l.list.head; i != 0; i = l.pages.recs[i].link[lruLink].next {
		addrs = append(addrs, l.pages.recs[i].addr)
	}
	return addrs
}
