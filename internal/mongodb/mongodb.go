// Package mongodb models the document store of the paper's second
// application study (§VI-D2): a MongoDB-like server with a WiredTiger-style
// storage engine — an application-managed record cache living in guest
// memory, backed by data files on a local SSD.
//
// The cache is the crux of Figure 5: WiredTiger runs its own LRU over its
// cache, and when that cache exceeds guest DRAM the *kernel* starts paging
// cache memory by its own policy underneath the engine. With swap the two
// policies fight (the paper: "the poor interaction between the WiredTiger
// storage engine's memory cache and kswapd"), while FluidMem transparently
// gives the engine what behaves like native memory.
package mongodb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/blockdev"
	"fluidmem/internal/clock"
	"fluidmem/internal/ilist"
	"fluidmem/internal/vm"
)

// RecordBytes is the YCSB record size used in the paper (1 KB).
const RecordBytes = 1024

// recordsPerPage is how many records share one guest page.
const recordsPerPage = vm.PageSize / RecordBytes

// Errors.
var (
	// ErrBadRecord reports an out-of-range record id.
	ErrBadRecord = errors.New("mongodb: record id out of range")
	// ErrCorrupt reports a record whose contents failed verification.
	ErrCorrupt = errors.New("mongodb: record corrupted")
)

// Config parametrises the store.
type Config struct {
	// Records is the dataset size (the paper's dataset is ≈5 GB).
	Records int
	// CacheBytes is the WiredTiger cache size (1–3 GB in Figure 5).
	CacheBytes uint64
	// QueryCPU is the server-side compute per read (parse, index walk, BSON
	// decode) charged on every operation.
	QueryCPU time.Duration
	// IndexTouches is how many index/internal B-tree pages the engine walks
	// per lookup. Those pages live in guest memory too, so they page like
	// everything else.
	IndexTouches int
	// IndexBytes sizes the B-tree internal/index segment. Zero selects the
	// default of one-eighth of the dataset.
	IndexBytes uint64
	// EvictionWalk is how many candidate cache pages the engine's eviction
	// server examines per cache-full miss, WiredTiger-style. These touches
	// are what collide with kernel paging when the cache exceeds DRAM.
	EvictionWalk int
	// Seed drives cache-slot randomisation.
	Seed uint64
}

// DefaultConfig sizes a store with the given dataset and cache.
func DefaultConfig(records int, cacheBytes uint64) Config {
	return Config{
		Records:      records,
		CacheBytes:   cacheBytes,
		QueryCPU:     90 * time.Microsecond,
		IndexTouches: 6,
		EvictionWalk: 8,
		Seed:         1,
	}
}

// Stats counts store activity.
type Stats struct {
	Reads       uint64
	CacheHits   uint64
	CacheMisses uint64
	DiskReads   uint64
	Evictions   uint64
}

// Store is the document store.
type Store struct {
	cfg   Config
	guest *vm.VM
	disk  *blockdev.Device

	cacheSeg *vm.Segment
	indexSeg *vm.Segment
	slots    int
	// slotOf maps record id → cache slot (-1 when uncached).
	slotOf []int32
	// recordAt maps slot → record id (-1 when free).
	recordAt []int32
	// lru orders the cache slots in use, head coldest; element i is slot
	// i-1 (0 is ilist's nil). Slots are taken in order and never given
	// back, so the list holds exactly slots [0, lru.Len).
	lru   ilist.List
	links []ilist.Link
	rng   *clock.Rand

	stats Stats
}

// Open creates the store: it allocates the cache segment in guest memory and
// loads the dataset onto the disk device (the YCSB load phase). It returns
// the store and the time when loading completes.
func Open(now time.Duration, guest *vm.VM, disk *blockdev.Device, cfg Config) (*Store, time.Duration, error) {
	if cfg.Records < 1 {
		return nil, now, fmt.Errorf("mongodb: %d records", cfg.Records)
	}
	if cfg.CacheBytes < vm.PageSize {
		return nil, now, fmt.Errorf("mongodb: cache %d too small", cfg.CacheBytes)
	}
	if disk == nil {
		return nil, now, errors.New("mongodb: nil disk")
	}
	datasetPages := uint64(cfg.Records+recordsPerPage-1) / recordsPerPage
	if disk.Pages() < datasetPages {
		return nil, now, fmt.Errorf("mongodb: disk holds %d pages, dataset needs %d", disk.Pages(), datasetPages)
	}
	s := &Store{
		cfg:   cfg,
		guest: guest,
		disk:  disk,
		rng:   clock.NewRand(cfg.Seed),
	}
	var err error
	s.cacheSeg, err = guest.Alloc("wiredtiger.cache", cfg.CacheBytes, vm.ClassAnon)
	if err != nil {
		return nil, now, fmt.Errorf("mongodb: %w", err)
	}
	// The engine's B-tree internal pages and index scale with the dataset.
	indexBytes := cfg.IndexBytes
	if indexBytes == 0 {
		indexBytes = uint64(cfg.Records) * RecordBytes / 8
	}
	if indexBytes < vm.PageSize {
		indexBytes = vm.PageSize
	}
	s.indexSeg, err = guest.Alloc("wiredtiger.index", indexBytes, vm.ClassAnon)
	if err != nil {
		return nil, now, fmt.Errorf("mongodb: %w", err)
	}
	s.slots = s.cacheSeg.Pages() * recordsPerPage
	s.slotOf = make([]int32, cfg.Records)
	for i := range s.slotOf {
		s.slotOf[i] = -1
	}
	s.recordAt = make([]int32, s.slots)
	for i := range s.recordAt {
		s.recordAt[i] = -1
	}
	s.links = make([]ilist.Link, s.slots+1)

	// Load phase: write every record's page to disk. Record contents encode
	// the record id so reads can verify integrity end to end.
	page := make([]byte, vm.PageSize)
	for p := uint64(0); p < datasetPages; p++ {
		for r := 0; r < recordsPerPage; r++ {
			id := int(p)*recordsPerPage + r
			if id >= cfg.Records {
				break
			}
			fillRecord(page[r*RecordBytes:(r+1)*RecordBytes], id)
		}
		if now, err = disk.WritePage(now, p, page); err != nil {
			return nil, now, fmt.Errorf("mongodb load: %w", err)
		}
	}
	return s, now, nil
}

// Stats returns a snapshot of counters.
func (s *Store) Stats() Stats { return s.stats }

// CacheSlots reports the cache capacity in records.
func (s *Store) CacheSlots() int { return s.slots }

// ReadRecord fetches record id, serving from the WiredTiger cache when
// possible and reading from disk (and inserting into the cache) otherwise.
func (s *Store) ReadRecord(now time.Duration, id int) (time.Duration, error) {
	if id < 0 || id >= s.cfg.Records {
		return now, fmt.Errorf("%w: %d", ErrBadRecord, id)
	}
	s.stats.Reads++
	now += s.cfg.QueryCPU

	// Index walk: the engine descends internal pages to locate the record.
	// The root levels are hot, the leaf levels spread across the index.
	var err error
	if now, err = s.touchIndex(now, id); err != nil {
		return now, err
	}

	if slot := s.slotOf[id]; slot >= 0 {
		s.stats.CacheHits++
		done, err := s.verifySlot(now, int(slot), id)
		if err != nil {
			return done, err
		}
		s.touchSlot(int(slot))
		return done, nil
	}

	// Cache miss: read the record's page from disk.
	s.stats.CacheMisses++
	s.stats.DiskReads++
	diskPage := uint64(id / recordsPerPage)
	pageData, done, err := s.disk.ReadPage(now, diskPage)
	if err != nil {
		return done, fmt.Errorf("mongodb: disk read: %w", err)
	}
	now = done

	// Insert into the cache. Past the eviction trigger (80% full, like
	// WiredTiger's eviction_trigger) the eviction server walks candidate
	// pages (reading their generations) before choosing the LRU victim; the
	// walk pages against the kernel just like record accesses do.
	if s.lru.Len*5 >= s.slots*4 {
		if now, err = s.evictionWalk(now); err != nil {
			return now, err
		}
	}
	slot := s.allocSlot()
	record := pageData[(id%recordsPerPage)*RecordBytes : (id%recordsPerPage+1)*RecordBytes]
	if now, err = s.writeSlot(now, slot, id, record); err != nil {
		return now, err
	}
	s.slotOf[id] = int32(slot)
	s.recordAt[slot] = int32(id)
	s.touchSlot(slot)
	return now, nil
}

// allocSlot picks the cache slot for a new record: the next slot never
// used, or once every slot is in use the engine's LRU choice, whose record
// is evicted. Eviction is purely bookkeeping for a read-only workload: clean
// records need no writeback.
func (s *Store) allocSlot() int {
	if s.lru.Len < s.slots {
		return s.lru.Len
	}
	slot := int(s.lru.Head) - 1
	if victim := s.recordAt[slot]; victim >= 0 {
		s.slotOf[victim] = -1
		s.recordAt[slot] = -1
		s.stats.Evictions++
	}
	return slot
}

// touchSlot makes slot the most recently used, putting it on the LRU list
// at its first use.
func (s *Store) touchSlot(slot int) {
	i := uint32(slot + 1)
	if slot < s.lru.Len {
		s.lru.Remove(s.links, i)
	}
	s.lru.PushBack(s.links, i)
}

// touchIndex walks the engine's internal pages for a lookup: one hot root
// page, then IndexTouches pages spread over the index keyed by the record id
// (consecutive ids share leaf pages, like a real B-tree).
func (s *Store) touchIndex(now time.Duration, id int) (time.Duration, error) {
	pages := s.indexSeg.Pages()
	if pages == 0 || s.cfg.IndexTouches == 0 {
		return now, nil
	}
	var err error
	// Root: always page 0 — hot, effectively always resident.
	if _, now, err = s.guest.Touch(now, s.indexSeg.Addr(0), false); err != nil {
		return now, err
	}
	span := (s.cfg.Records + pages - 1) / pages
	if span < 1 {
		span = 1
	}
	for i := 0; i < s.cfg.IndexTouches; i++ {
		// Interior levels fan out: mix the id with the level so lookups
		// touch distinct interior pages while nearby ids share leaves.
		page := ((id / span) + i*(pages/(s.cfg.IndexTouches+1)+1)) % pages
		// Every few lookups the engine updates statistics in the page
		// (read generations), dirtying it.
		write := (id+i)%8 == 0
		if _, now, err = s.guest.Touch(now, s.indexSeg.Addr(uint64(page)*vm.PageSize), write); err != nil {
			return now, err
		}
	}
	return now, nil
}

// evictionWalk models the engine's eviction server scanning candidate pages.
// WiredTiger walks its trees in order, which from the kernel's point of view
// is a scatter of reads across the whole cache: cold pages get their
// referenced bits set for no reason, poisoning kswapd's working-set signal.
// This is the "poor interaction between the WiredTiger storage engine's
// memory cache and kswapd" (§VI-D2); FluidMem's monitor ignores resident
// accesses entirely, so it is immune to the noise.
func (s *Store) evictionWalk(now time.Duration) (time.Duration, error) {
	var err error
	for i := 0; i < s.cfg.EvictionWalk; i++ {
		slot := s.rng.Intn(s.slots)
		if _, now, err = s.guest.Touch(now, s.slotAddr(slot), false); err != nil {
			return now, err
		}
	}
	return now, nil
}

// slotAddr returns the guest address of a cache slot.
func (s *Store) slotAddr(slot int) uint64 {
	page := slot / recordsPerPage
	off := (slot % recordsPerPage) * RecordBytes
	return s.cacheSeg.Addr(uint64(page)*vm.PageSize + uint64(off))
}

// verifySlot touches the slot's guest memory (this is where paging bites)
// and verifies the record's integrity marker. The touch is a write:
// WiredTiger updates the page's read generation on every access, so cache
// pages are perpetually dirty — the detail that feeds kswapd's writeback
// storms under swap (§VI-D2).
func (s *Store) verifySlot(now time.Duration, slot, id int) (time.Duration, error) {
	addr := s.slotAddr(slot)
	data, now, err := s.guest.Touch(now, addr, true)
	if err != nil {
		return now, err
	}
	off := addr & (vm.PageSize - 1)
	header := binary.LittleEndian.Uint64(data[off : off+8])
	if header != recordHeader(id) {
		return now, fmt.Errorf("%w: record %d header %#x", ErrCorrupt, id, header)
	}
	if _, now, err = s.guest.Read64(now, addr+RecordBytes/2); err != nil {
		return now, err
	}
	return now, nil
}

// writeSlot copies a record into the slot's guest memory.
func (s *Store) writeSlot(now time.Duration, slot, id int, record []byte) (time.Duration, error) {
	addr := s.slotAddr(slot)
	data, now, err := s.guest.Touch(now, addr, true)
	if err != nil {
		return now, err
	}
	off := addr & (vm.PageSize - 1)
	copy(data[off:off+RecordBytes], record)
	return now, nil
}

// fillRecord writes a verifiable record body for id.
func fillRecord(dst []byte, id int) {
	binary.LittleEndian.PutUint64(dst[:8], recordHeader(id))
	for i := 8; i < len(dst); i++ {
		dst[i] = byte(id + i)
	}
}

// recordHeader is the integrity marker stored at the head of each record.
func recordHeader(id int) uint64 {
	return 0xD0C0_0000_0000_0000 | uint64(uint32(id))
}
