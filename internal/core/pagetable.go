package core

import (
	"time"

	"fluidmem/internal/ilist"
	"fluidmem/internal/kvstore"
)

// pageTable is the monitor's per-page state, kept the way the kernel keeps
// it: one dense table per registered region, indexed by page number, instead
// of one hash map per fact. Page addresses are dense inside a region, so
// every fact the fault path asks about a page — seen before? zero-elided?
// resident, queued for write-back, write in flight? — is a region lookup and
// an index away. (The paper's monitor pays a hash probe here; that cost stays
// in virtual time as MonitorOps.HashLookup. Only the simulator's own
// bookkeeping changes.)
//
// A region spends one uint32 per guest page: two flag bits and the slab index
// of the page's record, zero for the common page that has none. Records
// (pageRec) exist only while a page is on the LRU list, on the write list, or
// has a write in flight, so the slab is bounded by LRU capacity plus queued
// plus in-flight pages, not by guest size. lruList and writeback are views
// over the table: each owns its fields of the record and its ilist list.
//
// Addresses outside every region — never produced by the data plane, but
// neither view forces its caller to register first — and whatever state
// outlives an unregistered region (zero marks, writes still in flight) live
// in the overflow map under their store key and behave exactly as in-region
// pages do.
type pageTable struct {
	regions []*pageRegion
	// recs is the record slab; index 0 is the nil record. lruLinks threads
	// records onto the LRU list or, while unused, the free list (reused last
	// in, first out); queueLinks threads them onto the write list.
	recs       []pageRec
	lruLinks   []ilist.Link
	queueLinks []ilist.Link
	free       ilist.List
	overflow   map[uint64]*uint32
	// none stays zero: it is the entry a read of an untracked out-of-region
	// page resolves to, so lookups never return nil.
	none uint32
}

// pageShift converts a page address to its page number.
const pageShift = 12 // log2(PageSize)

// Entry layout.
const (
	entSeen = 1 << 31 // the monitor has observed the page (not a first touch)
	entZero = 1 << 30 // latest eviction was all zeroes and never written
	entSlot = entZero - 1
)

// pageRegion is one registered range and the partition its pages are stored
// under.
type pageRegion struct {
	start, length uint64
	pid           int
	part          kvstore.PartitionID
	entries       []uint32
}

// Record states: which structures currently hold the record.
const (
	recLRU uint8 = 1 << iota
	recQueued
	recInflight
)

// pageRec is the tracked-page record: the LRU node, the pending write and
// the in-flight write of one page.
type pageRec struct {
	// id is the page's store key (page address | partition), which finds the
	// entry pointing here.
	id uint64
	// addr is the resident page's address.
	addr uint64
	// data is the evicted page awaiting its store write.
	data []byte
	// done is when the submitted write completes.
	done  time.Duration
	state uint8
}

func newPageTable() *pageTable {
	return &pageTable{recs: make([]pageRec, 1), lruLinks: make([]ilist.Link, 1), queueLinks: make([]ilist.Link, 1)}
}

// region returns the registered range containing addr, or nil. A monitor has
// a handful of regions, so the scan beats any index.
func (t *pageTable) region(addr uint64) *pageRegion {
	for _, r := range t.regions {
		if addr-r.start < r.length {
			return r
		}
	}
	return nil
}

// partOf reports the partition of pid's regions.
func (t *pageTable) partOf(pid int) (kvstore.PartitionID, bool) {
	for _, r := range t.regions {
		if r.pid == pid {
			return r.part, true
		}
	}
	return 0, false
}

// byAddr resolves the entry of the page at addr and its store key. With
// create unset an untracked out-of-region page resolves to the zero entry.
func (t *pageTable) byAddr(addr uint64, create bool) (*uint32, uint64) {
	if r := t.region(addr); r != nil {
		return &r.entries[(addr-r.start)>>pageShift], uint64(kvstore.MakeKey(addr, r.part))
	}
	return t.spill(addr, create), addr
}

// byKey resolves the entry of a store key. A key whose partition is not its
// region's (a page of an earlier registration of the same range) is not that
// region's page.
func (t *pageTable) byKey(key kvstore.Key, create bool) *uint32 {
	if r := t.region(key.Page()); r != nil && r.part == key.Partition() {
		return &r.entries[(key.Page()-r.start)>>pageShift]
	}
	return t.spill(uint64(key), create)
}

func (t *pageTable) spill(id uint64, create bool) *uint32 {
	e := t.overflow[id]
	if e != nil {
		return e
	}
	if !create {
		return &t.none
	}
	if t.overflow == nil {
		t.overflow = make(map[uint64]*uint32)
	}
	e = new(uint32)
	t.overflow[id] = e
	return e
}

// settle forgets an overflow entry that records nothing any more; callers
// run it after clearing a flag or a slot.
func (t *pageTable) settle(id uint64, e *uint32) {
	if *e == 0 && len(t.overflow) != 0 {
		delete(t.overflow, id)
	}
}

// track returns the slab index of the entry's record, allocating one if the
// page has none. Growing the slab moves it: no *pageRec survives this call.
func (t *pageTable) track(e *uint32, id uint64) uint32 {
	if i := *e & entSlot; i != 0 {
		return i
	}
	i := t.free.Tail
	if i != 0 {
		t.free.Remove(t.lruLinks, i)
	} else {
		i = uint32(len(t.recs))
		t.recs = append(t.recs, pageRec{})
		t.lruLinks = append(t.lruLinks, ilist.Link{})
		t.queueLinks = append(t.queueLinks, ilist.Link{})
	}
	t.recs[i] = pageRec{id: id}
	*e |= i
	return i
}

// release frees record i, which entry e points to, once no structure holds
// it.
func (t *pageTable) release(e *uint32, i uint32) {
	r := &t.recs[i]
	if r.state != 0 {
		return
	}
	id := r.id
	*r = pageRec{}
	t.free.PushBack(t.lruLinks, i)
	*e &^= entSlot
	t.settle(id, e)
}

// addRegion starts tracking [start, start+length) for pid under part,
// adopting any state an earlier registration of these pages left behind.
// Overlapping ranges are the caller's bug (uffd.Register rejects them first).
func (t *pageTable) addRegion(start, length uint64, pid int, part kvstore.PartitionID) {
	r := &pageRegion{start: start, length: length, pid: pid, part: part, entries: make([]uint32, length>>pageShift)}
	for id, e := range t.overflow {
		if key := kvstore.Key(id); key.Page()-start < length && key.Partition() == part {
			r.entries[(key.Page()-start)>>pageShift] = *e
			delete(t.overflow, id)
		}
	}
	t.regions = append(t.regions, r)
}

// dropRegion forgets the region starting at start (teardown, migration
// export). What its pages still record moves to the overflow map.
func (t *pageTable) dropRegion(start uint64) {
	for i, r := range t.regions {
		if r.start != start {
			continue
		}
		t.regions = append(t.regions[:i], t.regions[i+1:]...)
		for p, e := range r.entries {
			if e != 0 {
				*t.spill(uint64(kvstore.MakeKey(r.start+uint64(p)<<pageShift, r.part)), true) = e
			}
		}
		return
	}
}

// seen reports whether the monitor has observed the page at addr.
func (t *pageTable) seen(addr uint64) bool {
	e, _ := t.byAddr(addr, false)
	return *e&entSeen != 0
}

func (t *pageTable) setSeen(addr uint64) {
	e, _ := t.byAddr(addr, true)
	*e |= entSeen
}

func (t *pageTable) clearSeen(addr uint64) {
	e, id := t.byAddr(addr, false)
	*e &^= entSeen
	t.settle(id, e)
}
