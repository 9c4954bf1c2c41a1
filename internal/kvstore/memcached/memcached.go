// Package memcached implements a Memcached-flavoured key-value backend: a
// slab allocator with LRU eviction, reached over a TCP (IP-over-IB)
// transport whose round trip dominates latency. It is the paper's "standard
// Ethernet datacenter" backend (Figure 3c, §VI-B).
package memcached

import (
	"container/list"
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/kvstore"
)

// chunkSize is the one slab class's chunk: a page plus memcached's item
// header. Every write is a validated page, so no smaller class could ever
// hold an item.
const chunkSize = kvstore.PageSize + 80

// slabPageSize is the unit of memory the allocator carves into chunks.
const slabPageSize = 1 << 20

// ErrOutOfMemory reports a write while the store holds no slab and cannot
// get one: the capacity left is under one slab page, so there is
// neither a free chunk nor an item to evict.
var ErrOutOfMemory = errors.New("memcached: no slab memory for the item")

// Params configures the store.
type Params struct {
	// CapacityBytes bounds slab memory; beyond it, LRU eviction discards
	// the coldest items, exactly like memcached under pressure.
	CapacityBytes uint64
	// RTT models one request/response over TCP on IP-over-IB. Calibrated so
	// the FluidMem+Memcached fault average lands near the paper's 65.79 µs.
	RTT clock.LatencyModel
	// AsyncReadDiscount is the saving of the libevent-based async client
	// over the blocking call (no per-call wakeup handoff).
	AsyncReadDiscount time.Duration
}

// DefaultParams returns parameters matching the paper's test platform.
func DefaultParams() Params {
	return Params{
		CapacityBytes:     25 << 30,
		RTT:               clock.LatencyModel{Base: 70 * time.Microsecond, Jitter: 7 * time.Microsecond, TailProb: 0.01, TailExtra: 300 * time.Microsecond},
		AsyncReadDiscount: 5 * time.Microsecond,
	}
}

// item is one cached object. A taken item (Take) has nil data: it keeps its
// chunk and LRU place until the key is written, deleted or evicted.
type item struct {
	key  kvstore.Key
	data []byte
	elem *list.Element
}

// Store is the memcached backend.
type Store struct {
	params Params
	items  map[kvstore.Key]*item
	// allocated is the slab memory carved into chunks, used the chunks in
	// use, and lru the items, coldest first.
	allocated uint64
	used      int
	lru       *list.List

	// Reads and writes are pipelined on separate connections.
	readChan  *clock.Device
	writeChan *clock.Device
	stats     kvstore.Stats
}

var _ kvstore.Store = (*Store)(nil)

// New returns an empty store.
func New(p Params, seed uint64) *Store {
	if p.CapacityBytes == 0 {
		p.CapacityBytes = DefaultParams().CapacityBytes
	}
	s := &Store{
		params:    p,
		items:     make(map[kvstore.Key]*item),
		lru:       list.New(),
		readChan:  clock.NewDevice(p.RTT, seed),
		writeChan: clock.NewDevice(p.RTT, seed+1),
	}
	return s
}

// Name implements kvstore.Store.
func (s *Store) Name() string { return "memcached" }

// Reput implements kvstore.Reput: a MultiPut of a key's own read buffer
// swaps the item's buffer with itself.
func (s *Store) Reput() bool { return true }

// Take implements kvstore.Reput: the item stays, with no buffer.
func (s *Store) Take(key kvstore.Key, buf []byte) bool {
	it, ok := s.items[key]
	if !ok || !kvstore.SameBuffer(it.data, buf) {
		return false
	}
	it.data = nil
	return true
}

// Put implements kvstore.Store.
func (s *Store) Put(now time.Duration, key kvstore.Key, page []byte) (time.Duration, error) {
	if err := kvstore.ValidatePage(page); err != nil {
		return now, err
	}
	if err := s.room(); err != nil {
		return now, err
	}
	s.set(key, page)
	s.stats.Puts++
	return s.writeChan.Submit(now), nil
}

// MultiPut implements kvstore.Store. Memcached has no native multi-write;
// the client pipelines individual sets on one connection, which amortises
// less than RAMCloud's multi-write but still beats serial round trips. It is
// a hand-over: the item keeps the caller's buffer and the slot takes the one
// it held (nil for a new or a taken item).
func (s *Store) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	if len(keys) != len(pages) {
		return now, kvstore.ErrBadValue
	}
	// Validate the whole batch before writing anything: a rejected batch
	// must leave no partial state (atomic batch visibility). A store with
	// room before the batch keeps it: slabs are never returned.
	for _, page := range pages {
		if err := kvstore.ValidatePage(page); err != nil {
			return now, err
		}
		if err := s.room(); err != nil {
			return now, err
		}
	}
	for i, key := range keys {
		if it, ok := s.items[key]; ok {
			it.data, pages[i] = pages[i], it.data
			s.lru.MoveToBack(it.elem)
			continue
		}
		s.insert(key, pages[i])
		pages[i] = nil
	}
	s.stats.MultiPuts++
	s.stats.Puts += uint64(len(keys))
	return s.writeChan.SubmitN(now, len(keys)), nil
}

// Get implements kvstore.Store.
func (s *Store) Get(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
	s.stats.Gets++
	done := s.readChan.Submit(now)
	it, ok := s.items[key]
	if !ok || it.data == nil {
		s.stats.Misses++
		return nil, done, kvstore.ErrNotFound
	}
	s.lru.MoveToBack(it.elem)
	// Zero-copy read per the Store ownership contract.
	return it.data, done, nil
}

// MultiGet implements kvstore.Store: memcached's native multi-key get —
// one request carrying every key, one response streaming the hits back, so
// the TCP round trip is paid once for the whole batch.
func (s *Store) MultiGet(now time.Duration, keys []kvstore.Key) ([][]byte, time.Duration, error) {
	s.stats.MultiGets++
	s.stats.Gets += uint64(len(keys))
	pages := make([][]byte, len(keys))
	for i, key := range keys {
		it, ok := s.items[key]
		if !ok || it.data == nil {
			s.stats.Misses++
			continue
		}
		s.lru.MoveToBack(it.elem)
		pages[i] = it.data
	}
	if len(keys) == 0 {
		return pages, now, nil
	}
	return pages, s.readChan.SubmitN(now, len(keys)), nil
}

// StartGet implements kvstore.Store.
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
	if it, ok := s.items[key]; ok {
		s.remove(it)
	}
	return s.writeChan.Submit(now), nil
}

// Stats implements kvstore.Store.
func (s *Store) Stats() kvstore.Stats { return s.stats }

// Len reports resident item count, taken items included (test hook).
func (s *Store) Len() int { return len(s.items) }

// Buffers reports the page buffers the store holds: one per item not taken
// (test hook).
func (s *Store) Buffers() int {
	n := 0
	for _, it := range s.items {
		if it.data != nil {
			n++
		}
	}
	return n
}

// room refuses a write when no slab is allocated and the capacity left
// cannot hold one. Once a slab exists there is a free chunk or an item to
// evict, so set cannot fail after room passes.
func (s *Store) room() error {
	if s.allocated > 0 || slabPageSize <= s.params.CapacityBytes {
		return nil
	}
	return fmt.Errorf("%w: %d-byte chunks need a %d-byte slab, capacity is %d bytes",
		ErrOutOfMemory, chunkSize, slabPageSize, s.params.CapacityBytes)
}

// set stores a copy of data under key; room has checked that the store can
// take it. An item's own buffer takes the copy (a taken item gets a new one).
func (s *Store) set(key kvstore.Key, data []byte) {
	if it, ok := s.items[key]; ok {
		it.data = append(it.data[:0], data...)
		s.lru.MoveToBack(it.elem)
		return
	}
	s.insert(key, append([]byte(nil), data...))
}

// insert makes a new item of key holding buf, which it keeps; room has
// checked that the store can take it.
func (s *Store) insert(key kvstore.Key, buf []byte) {
	// Grow with a new slab page if needed, evicting LRU items when at
	// capacity.
	for s.used >= int(s.allocated)/chunkSize {
		if s.allocated+slabPageSize <= s.params.CapacityBytes {
			s.allocated += slabPageSize
			continue
		}
		// Capacity pressure: evict the coldest item.
		s.remove(s.lru.Front().Value.(*item))
		s.stats.Evictions++
	}
	it := &item{key: key, data: buf}
	it.elem = s.lru.PushBack(it)
	s.used++
	s.items[key] = it
	s.stats.BytesStored += kvstore.PageSize
}

func (s *Store) remove(it *item) {
	s.lru.Remove(it.elem)
	s.used--
	delete(s.items, it.key)
	s.stats.BytesStored -= kvstore.PageSize
}
