// Package ramcloud implements a RAMCloud-flavoured key-value backend: a
// log-structured in-memory store (append-only segments, a hash index, and a
// cleaner that compacts cold segments) fronted by a low-latency network
// transport with native multi-write, mirroring the backend the paper pairs
// FluidMem with (§IV, §VI-A).
package ramcloud

import (
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/kvstore"
)

// ErrOutOfMemory reports that the log is full and cleaning cannot reclaim
// enough space for the write.
var ErrOutOfMemory = errors.New("ramcloud: log full")

// segmentSize is the size of one append-only log segment (RAMCloud's 8 MB).
const segmentSize = 8 << 20

// entrySize is the stored footprint of one page object: 4 KB of data plus a
// small header (key + length), rounded for simplicity.
const entrySize = kvstore.PageSize + 64

const entriesPerSegment = segmentSize / entrySize

// Params configures the store.
type Params struct {
	// CapacityBytes bounds total log memory (the paper gives RAMCloud 25 GB).
	CapacityBytes uint64
	// ReadLatency models one GET round trip over the InfiniBand transport.
	// The paper measures READ_PAGE at 15.62 µs average.
	ReadLatency clock.LatencyModel
	// WriteLatency models one PUT round trip (WRITE_PAGE: 14.70 µs average).
	WriteLatency clock.LatencyModel
	// CleanerThreshold is the live-data fraction below which a segment is
	// worth compacting.
	CleanerThreshold float64
	// AsyncReadDiscount is how much cheaper the split (top/bottom-half)
	// read API is than the synchronous Get: RAMCloud's polling async path
	// skips the dispatch-thread handoff the sync RPC pays (§V-B).
	AsyncReadDiscount time.Duration
}

// DefaultParams returns parameters calibrated to the paper's Table I.
func DefaultParams() Params {
	return Params{
		CapacityBytes:     25 << 30,
		ReadLatency:       clock.LatencyModel{Base: 14300 * time.Nanosecond, Jitter: 1500 * time.Nanosecond, TailProb: 0.004, TailExtra: 400 * time.Microsecond},
		WriteLatency:      clock.LatencyModel{Base: 14700 * time.Nanosecond, Jitter: 1500 * time.Nanosecond},
		CleanerThreshold:  0.5,
		AsyncReadDiscount: 4300 * time.Nanosecond,
	}
}

// entryRef locates a live object inside the log.
type entryRef struct {
	segment *segment
	slot    int
}

// segment is one append-only unit of the log.
type segment struct {
	id      uint64
	entries []logEntry
	live    int
	sealed  bool
	// released is the entry count of a sealed segment whose entries all
	// died and whose array went back to Store.freeEntries; the record
	// itself stays in the log's accounting.
	released int
}

// logEntry is one object in the log. A live entry whose data is nil was
// taken (Take): it keeps its place in the log until the key is written or
// deleted.
type logEntry struct {
	key  kvstore.Key
	data []byte
	dead bool
}

// Store is the RAMCloud backend.
type Store struct {
	params Params

	head     *segment
	segments []*segment
	index    map[kvstore.Key]entryRef
	nextSeg  uint64

	// Reads and writes travel as independent outstanding RPCs (RAMCloud
	// allows multiple RPCs in flight), so they queue separately.
	readChan  *clock.Device
	writeChan *clock.Device
	stats     kvstore.Stats
	cleanings uint64

	// freeBufs recycles the 4 KB payloads of entries killed by Put and Delete
	// (MultiPut hands the ones it kills to its caller), so a Put reuses
	// memory instead of allocating a fresh page per write.
	freeBufs [][]byte
	// freeEntries recycles the entry arrays of sealed segments that died
	// completely: log metadata stays bounded by the live set even when the
	// cleaner never runs (the default 25 GB nominal capacity is never
	// reached). entryArrays counts the arrays ever allocated (test hook).
	freeEntries [][]logEntry
	entryArrays int
}

var _ kvstore.Store = (*Store)(nil)

// New returns an empty store.
func New(p Params, seed uint64) *Store {
	if p.CapacityBytes == 0 {
		p.CapacityBytes = DefaultParams().CapacityBytes
	}
	if p.CleanerThreshold == 0 {
		p.CleanerThreshold = 0.5
	}
	s := &Store{
		params:    p,
		index:     make(map[kvstore.Key]entryRef),
		readChan:  clock.NewDevice(p.ReadLatency, seed),
		writeChan: clock.NewDevice(p.WriteLatency, seed+1),
	}
	s.rollHead()
	return s
}

// Name implements kvstore.Store.
func (s *Store) Name() string { return "ramcloud" }

// Reput implements kvstore.Reput: a MultiPut of a key's own read buffer
// appends it as the new version and hands back the payload of the version it
// killed — the same buffer.
func (s *Store) Reput() bool { return true }

// Take implements kvstore.Reput: the object stays live in its segment, for
// the log's accounting and the cleaner, with no payload.
func (s *Store) Take(key kvstore.Key, buf []byte) bool {
	ref, ok := s.index[key]
	if !ok {
		return false
	}
	e := &ref.segment.entries[ref.slot]
	if !kvstore.SameBuffer(e.data, buf) {
		return false
	}
	e.data = nil
	return true
}

// Put implements kvstore.Store: the log takes a copy of page.
func (s *Store) Put(now time.Duration, key kvstore.Key, page []byte) (time.Duration, error) {
	if err := kvstore.ValidatePage(page); err != nil {
		return now, err
	}
	if err := s.reserve(1); err != nil {
		return now, err
	}
	if dead := s.appendObject(key, append(s.takeFree()[:0], page...)); dead != nil {
		s.freeBufs = append(s.freeBufs, dead)
	}
	s.stats.Puts++
	return s.writeChan.Submit(now), nil
}

// MultiPut implements kvstore.Store. RAMCloud's multi-write amortises the
// round trip across the batch; the marginal per-page cost is small.
func (s *Store) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	if len(keys) != len(pages) {
		return now, kvstore.ErrBadValue
	}
	// Validate the whole batch and find it room before touching the log: a
	// rejected batch must leave no partial state (atomic batch visibility).
	for _, page := range pages {
		if err := kvstore.ValidatePage(page); err != nil {
			return now, err
		}
	}
	if err := s.reserve(len(keys)); err != nil {
		return now, err
	}
	// Hand-over, not copy: the log keeps the caller's buffer and the slot
	// takes the payload of the version it killed, else a spare one if any.
	for i, key := range keys {
		if pages[i] = s.appendObject(key, pages[i]); pages[i] == nil {
			pages[i] = s.takeFree()
		}
	}
	s.stats.MultiPuts++
	s.stats.Puts += uint64(len(keys))
	return s.writeChan.SubmitN(now, len(keys)), nil
}

// Get implements kvstore.Store.
func (s *Store) Get(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
	s.stats.Gets++
	done := s.readChan.Submit(now)
	data := s.lookup(key)
	if data == nil {
		s.stats.Misses++
		return nil, done, kvstore.ErrNotFound
	}
	// Zero-copy read per the Store ownership contract: the caller gets a
	// reference into the log, valid until the next write touching the key.
	return data, done, nil
}

// MultiGet implements kvstore.Store. RAMCloud's multi-read amortises the
// round trip across the batch exactly like multi-write: one dispatch, then
// a small marginal hash-lookup cost per additional object.
func (s *Store) MultiGet(now time.Duration, keys []kvstore.Key) ([][]byte, time.Duration, error) {
	s.stats.MultiGets++
	s.stats.Gets += uint64(len(keys))
	pages := make([][]byte, len(keys))
	for i, key := range keys {
		if pages[i] = s.lookup(key); pages[i] == nil {
			s.stats.Misses++
		}
	}
	if len(keys) == 0 {
		return pages, now, nil
	}
	return pages, s.readChan.SubmitN(now, len(keys)), nil
}

// StartGet implements kvstore.Store: the request goes on the wire now and the
// reply lands at ReadyAt, letting the caller overlap eviction work (§V-B).
// The polling async client skips the sync path's dispatch-thread handoff,
// so the wait is AsyncReadDiscount shorter than a synchronous Get.
func (s *Store) StartGet(now time.Duration, key kvstore.Key) kvstore.PendingGet {
	data, readyAt, err := s.Get(now, key)
	if discounted := readyAt - s.params.AsyncReadDiscount; discounted > now {
		readyAt = discounted
	}
	return kvstore.PendingGet{Key: key, Data: data, ReadyAt: readyAt, Err: err}
}

// Delete implements kvstore.Store.
func (s *Store) Delete(now time.Duration, key kvstore.Key) (time.Duration, error) {
	s.stats.Deletes++
	if ref, ok := s.index[key]; ok {
		if dead := s.killEntry(ref); dead != nil { // a taken object has none
			s.freeBufs = append(s.freeBufs, dead)
		}
		delete(s.index, key)
	}
	return s.writeChan.Submit(now), nil
}

// Stats implements kvstore.Store.
func (s *Store) Stats() kvstore.Stats { return s.stats }

// Cleanings reports how many segments the cleaner has compacted.
func (s *Store) Cleanings() uint64 { return s.cleanings }

// SegmentCount reports the number of log segments (test hook).
func (s *Store) SegmentCount() int { return len(s.segments) }

// Buffers reports the payload buffers the store holds: one per live object
// not taken, and the spares (test hook).
func (s *Store) Buffers() int {
	n := len(s.freeBufs)
	for key := range s.index {
		if s.lookup(key) != nil {
			n++
		}
	}
	return n
}

// lookup returns key's payload: nil when the key is absent or taken.
func (s *Store) lookup(key kvstore.Key) []byte {
	if ref, ok := s.index[key]; ok {
		return ref.segment.entries[ref.slot].data
	}
	return nil
}

// Utilization reports the live fraction of log space in sealed segments.
func (s *Store) Utilization() float64 {
	total, live := 0, 0
	for _, seg := range s.segments {
		if !seg.sealed {
			continue
		}
		total += len(seg.entries) + seg.released
		live += seg.live
	}
	if total == 0 {
		return 1
	}
	return float64(live) / float64(total)
}

// reserve makes sure the log can take n more entries, cleaning once if they
// would push it past its capacity. It appends nothing, and cleaning moves
// entries without changing what any key reads, so a write refused with
// ErrOutOfMemory has left the store as it was.
func (s *Store) reserve(n int) error {
	for cleaned := false; ; cleaned = true {
		segs := (n - (entriesPerSegment - len(s.head.entries)) + entriesPerSegment - 1) / entriesPerSegment
		if segs <= 0 || s.logBytes()+uint64(segs)*segmentSize <= s.params.CapacityBytes {
			return nil
		}
		if cleaned {
			return fmt.Errorf("%w: %d bytes in use", ErrOutOfMemory, s.logBytes())
		}
		s.clean()
	}
}

// takeFree pops a recycled payload buffer, nil when there is none.
func (s *Store) takeFree() []byte {
	n := len(s.freeBufs)
	if n == 0 {
		return nil
	}
	buf := s.freeBufs[n-1]
	s.freeBufs[n-1] = nil
	s.freeBufs = s.freeBufs[:n-1]
	return buf
}

// appendObject writes (key, buf) at the log head, for which reserve has found
// room. The log keeps buf; the payload of the version it kills, if there was
// one and it was not taken, is returned.
func (s *Store) appendObject(key kvstore.Key, buf []byte) (dead []byte) {
	if len(s.head.entries) >= entriesPerSegment {
		s.head.sealed = true
		s.rollHead()
	}
	if old, ok := s.index[key]; ok {
		dead = s.killEntry(old) // decrements BytesStored; restored just below
	}
	s.stats.BytesStored += kvstore.PageSize
	s.head.entries = append(s.head.entries, logEntry{key: key, data: buf})
	s.head.live++
	s.index[key] = entryRef{segment: s.head, slot: len(s.head.entries) - 1}
	return dead
}

// killEntry marks a live entry dead and returns its payload, which the log no
// longer references (nil for a taken object).
func (s *Store) killEntry(ref entryRef) []byte {
	e := &ref.segment.entries[ref.slot]
	data := e.data
	e.dead = true
	e.data = nil
	seg := ref.segment
	seg.live--
	s.stats.BytesStored -= kvstore.PageSize
	if seg.sealed && seg.live == 0 {
		// Nothing can reach these entries any more — the index only
		// points at live ones — and dying dropped their payloads.
		seg.released = len(seg.entries)
		s.freeEntries = append(s.freeEntries, seg.entries[:0])
		seg.entries = nil
	}
	return data
}

// clean relocates live entries out of low-utilisation sealed segments and
// frees them, LFS-style.
func (s *Store) clean() {
	kept := s.segments[:0]
	var victims []*segment
	for _, seg := range s.segments {
		if seg.sealed && seg != s.head && float64(seg.live)/float64(entriesPerSegment) < s.params.CleanerThreshold {
			victims = append(victims, seg)
		} else {
			kept = append(kept, seg)
		}
	}
	s.segments = kept
	for _, seg := range victims {
		s.cleanings++
		for slot := range seg.entries {
			e := &seg.entries[slot]
			if e.dead {
				continue
			}
			// Relocate without double-counting BytesStored. The payload
			// moves by pointer: a taken object moves with none.
			if len(s.head.entries) >= entriesPerSegment {
				s.head.sealed = true
				s.rollHead()
			}
			s.head.entries = append(s.head.entries, logEntry{key: e.key, data: e.data})
			s.head.live++
			s.index[e.key] = entryRef{segment: s.head, slot: len(s.head.entries) - 1}
		}
	}
}

func (s *Store) rollHead() {
	s.nextSeg++
	if len(s.freeEntries) == 0 {
		s.freeEntries = append(s.freeEntries, make([]logEntry, 0, entriesPerSegment))
		s.entryArrays++
	}
	last := len(s.freeEntries) - 1
	s.head = &segment{id: s.nextSeg, entries: s.freeEntries[last]}
	s.freeEntries = s.freeEntries[:last]
	s.segments = append(s.segments, s.head)
}

func (s *Store) logBytes() uint64 {
	return uint64(len(s.segments)) * segmentSize
}
