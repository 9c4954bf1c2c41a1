// Package kvstore defines the backend-neutral key-value API FluidMem uses to
// place 4 KB memory pages in remote stores (§IV of the paper), the 64-bit key
// codec (52-bit page address + 12-bit virtual partition), and the partition
// registry that guarantees globally unique partition indexes.
package kvstore

import (
	"errors"
	"fmt"
	"time"
)

// PageSize is the size of one memory page; all values stored through this
// API are exactly one page.
const PageSize = 4096

// Errors shared by all backends.
var (
	// ErrNotFound reports that no value is stored under the key.
	ErrNotFound = errors.New("kvstore: key not found")
	// ErrBadValue reports a value whose length is not PageSize.
	ErrBadValue = errors.New("kvstore: value is not a 4 KB page")
	// ErrNoPartitions reports exhaustion of the 12-bit partition space.
	ErrNoPartitions = errors.New("kvstore: no free virtual partitions")
)

// PartitionID is a 12-bit virtual partition index. Stores without native
// partition support multiplex tenants through it (§IV).
type PartitionID uint16

// MaxPartitions is the number of distinct virtual partitions (2^12).
const MaxPartitions = 1 << 12

// Key is the 64-bit store key: the upper 52 bits are the page-aligned
// virtual address bits [63:12] of the faulting address, and the lower
// 12 bits index the virtual partition.
type Key uint64

// MakeKey builds a key from a virtual address and a partition. The address's
// page offset bits are discarded, exactly as in the paper: the first 52 bits
// of the faulting virtual address identify the page.
func MakeKey(virtAddr uint64, part PartitionID) Key {
	return Key(virtAddr&^uint64(PageSize-1) | uint64(part)&0xFFF)
}

// Page returns the page-aligned virtual address encoded in the key.
func (k Key) Page() uint64 { return uint64(k) &^ 0xFFF }

// Partition returns the virtual partition index encoded in the key.
func (k Key) Partition() PartitionID { return PartitionID(k & 0xFFF) }

func (k Key) String() string {
	return fmt.Sprintf("page=0x%x part=%d", k.Page(), k.Partition())
}

// PendingGet is a read in flight: the top half of a split read has been
// issued and the transport will deliver the value at ReadyAt. The bottom
// half calls Wait.
type PendingGet struct {
	Key     Key
	Data    []byte
	ReadyAt time.Duration
	Err     error
}

// Wait completes the bottom half at virtual time now, returning the value
// and the time at which the caller may proceed (never earlier than ReadyAt).
func (p *PendingGet) Wait(now time.Duration) ([]byte, time.Duration, error) {
	done := now
	if p.ReadyAt > done {
		done = p.ReadyAt
	}
	return p.Data, done, p.Err
}

// Stats counts backend traffic.
type Stats struct {
	Gets      uint64
	Puts      uint64
	MultiPuts uint64
	MultiGets uint64
	Deletes   uint64
	Misses    uint64
	// Evictions counts values the store itself discarded (capacity pressure
	// in stores with their own eviction, e.g. memcached slabs).
	Evictions uint64
	// BytesStored is the current resident value payload.
	BytesStored uint64
}

// Store is the synchronous + split-read backend interface. All latencies are
// virtual: each call takes the current virtual time and returns the virtual
// time at which the operation completes. Implementations model transport and
// service-time queueing internally.
//
// Buffer ownership contract (load-bearing for the allocation-free fault
// path — see DESIGN.md §14):
//
//   - Put: the store COPIES the page before returning. The caller keeps the
//     buffer it passed in and may reuse it at once.
//   - MultiPut: a HAND-OVER, in place. On success the store may have kept
//     pages[i] itself — the caller must not touch that buffer again — and has
//     left in the slot what the caller owns from now on: a PageSize buffer of
//     unspecified contents (the version the write replaced; never nil when
//     the key already held a page) or nil. A store that copies leaves the
//     slot alone, which satisfies this. On any error the store has taken
//     nothing: every pages[i] is the buffer that was passed, bytes intact, so
//     the same slice can be submitted again.
//   - Get / MultiGet / StartGet: the store may return a reference to its
//     INTERNAL buffer (zero-copy read). Its bytes stay unchanged, and the
//     buffer is not reused — not handed back by a MultiPut, not returned for
//     another key — until the caller next writes (Put / MultiPut) or deletes
//     that key in that store. The store's own work in between (cleaning,
//     capacity eviction, replica repair, crash and recovery) may drop or
//     move the buffer but never writes into it. Callers must never write
//     into or recycle a store-returned buffer. The monitor relies on this to
//     map a read buffer into the VM write-protected instead of copying it
//     (uffd.FD.CopyWP): a page is written or deleted only after it has left
//     the VM. storetest.ReadStableUntilWrite holds every backend to it.
type Store interface {
	// Name identifies the backend ("ramcloud", "memcached", "dram").
	Name() string
	// Put stores one page, returning the completion time.
	Put(now time.Duration, key Key, page []byte) (time.Duration, error)
	// MultiPut stores a batch of pages in one amortised operation
	// (RAMCloud multi-write; a pipelined loop elsewhere), all of it or none,
	// and trades buffers with the caller through pages (see above).
	MultiPut(now time.Duration, keys []Key, pages [][]byte) (time.Duration, error)
	// Get retrieves one page synchronously.
	Get(now time.Duration, key Key) ([]byte, time.Duration, error)
	// MultiGet retrieves a batch of pages in one amortised round trip
	// (RAMCloud multi-read; a pipelined loop elsewhere). The result is
	// aligned with keys: entry i holds the page for keys[i], or nil when
	// that key is absent — a per-key miss is NOT an error, so a batch
	// mixing hits and misses succeeds. The error return is reserved for
	// store-level failures (transport loss, crash, injected faults), in
	// which case no entry of the result may be used.
	MultiGet(now time.Duration, keys []Key) ([][]byte, time.Duration, error)
	// StartGet issues the top half of a split read (§V-B async reads);
	// the caller overlaps other work and then calls Wait on the result.
	// The result is returned by value so the fault hot path never heap-
	// allocates a pending-read handle.
	StartGet(now time.Duration, key Key) PendingGet
	// Delete removes one page (VM teardown).
	Delete(now time.Duration, key Key) (time.Duration, error)
	// Stats returns a snapshot of traffic counters.
	Stats() Stats
}

// Local is implemented by backends resident on the hypervisor itself: no
// network round trip is involved, so the monitor skips its RPC-stack costs.
type Local interface {
	// Local reports that operations do not cross the network.
	Local() bool
}

// ValidatePage returns ErrBadValue unless page is exactly one page long.
func ValidatePage(page []byte) error {
	if len(page) != PageSize {
		return fmt.Errorf("%w: got %d bytes", ErrBadValue, len(page))
	}
	return nil
}
