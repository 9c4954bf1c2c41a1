// Package dram implements the local-DRAM key-value backend: pages are kept
// in hypervisor memory on the same machine, so "transport" is a memcpy. It
// is the latency floor against which the networked backends are compared
// (Figure 3a / Table II "FluidMem with DRAM").
package dram

import (
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/kvstore"
)

// Params configures the memcpy-scale service times.
type Params struct {
	// ReadLatency is the cost of fetching one page from local DRAM
	// (lookup + copy).
	ReadLatency clock.LatencyModel
	// WriteLatency is the cost of storing one page.
	WriteLatency clock.LatencyModel
}

// DefaultParams returns service times for a local in-memory store:
// roughly a microsecond per 4 KB copy plus bookkeeping.
func DefaultParams() Params {
	return Params{
		ReadLatency:  clock.LatencyModel{Base: 1200 * time.Nanosecond, Jitter: 150 * time.Nanosecond},
		WriteLatency: clock.LatencyModel{Base: 1300 * time.Nanosecond, Jitter: 150 * time.Nanosecond},
	}
}

// Store is the DRAM backend.
type Store struct {
	// pages holds each key's buffer; a taken key (Take) maps to nil.
	pages map[kvstore.Key][]byte
	read  *clock.Device
	write *clock.Device
	stats kvstore.Stats
}

var _ kvstore.Store = (*Store)(nil)

// New returns an empty DRAM store.
func New(p Params, seed uint64) *Store {
	return &Store{
		pages: make(map[kvstore.Key][]byte),
		read:  clock.NewDevice(p.ReadLatency, seed),
		write: clock.NewDevice(p.WriteLatency, seed+1),
	}
}

// Name implements kvstore.Store.
func (s *Store) Name() string { return "dram" }

// Local implements kvstore.Local: pages live in hypervisor DRAM.
func (s *Store) Local() bool { return true }

// Reput implements kvstore.Reput: a MultiPut of a key's own read buffer
// swaps the buffer with itself.
func (s *Store) Reput() bool { return true }

// Take implements kvstore.Reput: the key stays in the map, with no buffer.
func (s *Store) Take(key kvstore.Key, buf []byte) bool {
	if !kvstore.SameBuffer(s.pages[key], buf) {
		return false
	}
	s.pages[key] = nil
	return true
}

// Put implements kvstore.Store.
func (s *Store) Put(now time.Duration, key kvstore.Key, page []byte) (time.Duration, error) {
	if err := kvstore.ValidatePage(page); err != nil {
		return now, err
	}
	s.set(key, page)
	s.stats.Puts++
	return s.write.Submit(now), nil
}

// set copies page into the store, reusing the existing buffer on overwrite
// (a taken key has none).
func (s *Store) set(key kvstore.Key, page []byte) {
	old, existed := s.pages[key]
	if !existed {
		s.stats.BytesStored += kvstore.PageSize
	}
	if old == nil {
		s.pages[key] = append([]byte(nil), page...)
		return
	}
	copy(old, page)
}

// MultiPut implements kvstore.Store.
func (s *Store) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	if len(keys) != len(pages) {
		return now, kvstore.ErrBadValue
	}
	// Validate the whole batch before writing anything: a rejected batch
	// must leave no partial state (atomic batch visibility).
	for _, page := range pages {
		if err := kvstore.ValidatePage(page); err != nil {
			return now, err
		}
	}
	// Hand-over, not copy: the map keeps the caller's buffer and the slot
	// takes the version it replaced (nil for a new or a taken key).
	for i, key := range keys {
		old, existed := s.pages[key]
		if !existed {
			s.stats.BytesStored += kvstore.PageSize
		}
		s.pages[key], pages[i] = pages[i], old
	}
	s.stats.MultiPuts++
	s.stats.Puts += uint64(len(keys))
	return s.write.SubmitN(now, len(keys)), nil
}

// Get implements kvstore.Store. The returned slice references the store's
// internal buffer (zero-copy read, per the Store ownership contract).
func (s *Store) Get(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
	s.stats.Gets++
	page := s.pages[key]
	done := s.read.Submit(now)
	if page == nil {
		s.stats.Misses++
		return nil, done, kvstore.ErrNotFound
	}
	return page, done, nil
}

// MultiGet implements kvstore.Store: one batched lookup pass, with the
// copies amortised onto the read device like MultiPut's writes. Returned
// pages reference internal buffers (zero-copy reads).
func (s *Store) MultiGet(now time.Duration, keys []kvstore.Key) ([][]byte, time.Duration, error) {
	s.stats.MultiGets++
	s.stats.Gets += uint64(len(keys))
	pages := make([][]byte, len(keys))
	for i, key := range keys {
		if pages[i] = s.pages[key]; pages[i] == nil {
			s.stats.Misses++
		}
	}
	if len(keys) == 0 {
		return pages, now, nil
	}
	return pages, s.read.SubmitN(now, len(keys)), nil
}

// StartGet implements kvstore.Store.
func (s *Store) StartGet(now time.Duration, key kvstore.Key) kvstore.PendingGet {
	data, readyAt, err := s.Get(now, key)
	return kvstore.PendingGet{Key: key, Data: data, ReadyAt: readyAt, Err: err}
}

// Delete implements kvstore.Store.
func (s *Store) Delete(now time.Duration, key kvstore.Key) (time.Duration, error) {
	s.stats.Deletes++
	if _, ok := s.pages[key]; ok {
		s.stats.BytesStored -= kvstore.PageSize
		delete(s.pages, key)
	}
	return s.write.Submit(now), nil
}

// Stats implements kvstore.Store.
func (s *Store) Stats() kvstore.Stats { return s.stats }

// Len reports the number of resident pages, taken ones included (test hook).
func (s *Store) Len() int { return len(s.pages) }

// Buffers reports the page buffers the store holds: one per key not taken
// (test hook).
func (s *Store) Buffers() int {
	n := 0
	for _, page := range s.pages {
		if page != nil {
			n++
		}
	}
	return n
}
