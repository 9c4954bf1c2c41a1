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
// (pageRec) exist only while a page is on the LRU list, on the write list,
// has a write in flight, or is pooled in the compressed tier, so the slab is
// bounded by LRU capacity plus queued, in-flight and pooled pages, not by
// guest size. lruList, writeback and compressedTier are the table's three
// views: each owns its fields of the record and its ilist list.
//
// A page's state lives and dies with its region: registration allocates a
// zeroed table and adopts nothing, and the monitor's one release walk
// (teardown, a completed migration export, a failed import) forgets every
// page before it discards the table. A read outside every region sees the
// zero entry; creating state there is the caller's bug and panics. The one
// record that may outlive its region is a write still in flight at
// teardown: it stays on the engine's in-flight list, so drains and
// completion times are unchanged, but no entry names it, and a later
// registration of the same range under the same partition starts from zero
// rather than waiting on that orphaned write.
type pageTable struct {
	regions []*pageRegion
	// recs is the record slab; index 0 is the nil record. lruLinks threads
	// records onto the LRU list or, while unused, the free list (reused last
	// in, first out); queueLinks threads them onto the write list or the
	// compressed tier's pool, never both.
	recs       []pageRec
	lruLinks   []ilist.Link
	queueLinks []ilist.Link
	free       ilist.List
	// none stays zero: it is the entry a read outside every region resolves
	// to, so lookups never return nil.
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
	recPooled
)

// pageRec is the tracked-page record: the LRU node, the pending write, the
// in-flight write and the pooled copy of one page.
type pageRec struct {
	// id is the page's store key (page address | partition), which finds the
	// entry pointing here — none, for a write that outlived its region.
	id uint64
	// data is the evicted page awaiting its store write, or the compressed
	// copy of a pooled page; shared marks a queued page the store's own read
	// buffer of the key, not the monitor's to pool (kept beside state, where
	// it costs the record no padding).
	data []byte
	// done is when the submitted write completes.
	done   time.Duration
	state  uint8
	shared bool
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

// byAddr resolves the entry of the page at addr and its store key. Outside
// every region a read resolves to the zero entry and create panics.
func (t *pageTable) byAddr(addr uint64, create bool) (*uint32, uint64) {
	if r := t.region(addr); r != nil {
		return &r.entries[(addr-r.start)>>pageShift], uint64(kvstore.MakeKey(addr, r.part))
	}
	return t.outside(create), addr
}

// byKey resolves the entry of a store key. A key whose partition is not its
// region's (a page of an earlier registration of the same range) is not that
// region's page.
func (t *pageTable) byKey(key kvstore.Key, create bool) *uint32 {
	if r := t.region(key.Page()); r != nil && r.part == key.Partition() {
		return &r.entries[(key.Page()-r.start)>>pageShift]
	}
	return t.outside(create)
}

func (t *pageTable) outside(create bool) *uint32 {
	if create {
		panic("core: page state outside every registered region")
	}
	return &t.none
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

// release frees record i once no structure holds it, clearing entry e's
// slot if e names the record (an in-flight write that outlived its region
// is named by none).
func (t *pageTable) release(e *uint32, i uint32) {
	if t.recs[i].state != 0 {
		return
	}
	t.recs[i] = pageRec{}
	t.free.PushBack(t.lruLinks, i)
	if *e&entSlot == i {
		*e &^= entSlot
	}
}

// addRegion starts tracking [start, start+length) for pid under part, every
// page's entry zero. Overlapping ranges are the caller's bug (uffd.Register
// rejects them first).
func (t *pageTable) addRegion(start, length uint64, pid int, part kvstore.PartitionID) {
	t.regions = append(t.regions, &pageRegion{start: start, length: length, pid: pid, part: part, entries: make([]uint32, length>>pageShift)})
}

// dropRegion discards the region starting at start and its table (the
// monitor's release walk).
func (t *pageTable) dropRegion(start uint64) {
	for i, r := range t.regions {
		if r.start == start {
			t.regions = append(t.regions[:i], t.regions[i+1:]...)
			return
		}
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
