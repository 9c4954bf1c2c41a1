package core

import (
	"fluidmem/internal/ilist"
	"fluidmem/internal/kvstore"
)

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
// The list is an intrusive ilist list whose nodes are the resident pages'
// records in the page table (see pagetable.go), found by indexing a page's
// region. Membership tests and removals hash nothing, and the steady-state
// fault path (evict one, insert one) allocates nothing.
type lruList struct {
	pages *pageTable
	list  ilist.List // in insertion order: Head is the oldest entry
}

// newLRU returns an empty list over pages.
func newLRU(pages *pageTable) *lruList { return &lruList{pages: pages} }

// Len reports tracked pages.
func (l *lruList) Len() int { return l.list.Len }

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
	l.list.PushBack(l.pages.lruLinks, i)
}

// Contains reports membership.
func (l *lruList) Contains(addr uint64) bool {
	e, _ := l.pages.byAddr(addr, false)
	return l.pages.recs[*e&entSlot].state&recLRU != 0
}

// Oldest returns the eviction candidate: the head of the list.
func (l *lruList) Oldest() (uint64, bool) {
	if l.list.Head == 0 {
		return 0, false
	}
	return kvstore.Key(l.pages.recs[l.list.Head].id).Page(), true
}

// Remove deletes addr, reporting whether it was present and, if it was, the
// page's store key.
func (l *lruList) Remove(addr uint64) (kvstore.Key, bool) {
	e, _ := l.pages.byAddr(addr, false)
	i := *e & entSlot
	n := &l.pages.recs[i]
	if n.state&recLRU == 0 {
		return 0, false
	}
	key := kvstore.Key(n.id)
	l.list.Remove(l.pages.lruLinks, i)
	n.state &^= recLRU
	l.pages.release(e, i)
	return key, true
}

// Addrs returns the resident page addresses, oldest first.
func (l *lruList) Addrs() []uint64 {
	addrs := make([]uint64, 0, l.list.Len)
	for i := l.list.Head; i != 0; i = l.pages.lruLinks[i].Next {
		addrs = append(addrs, kvstore.Key(l.pages.recs[i].id).Page())
	}
	return addrs
}
