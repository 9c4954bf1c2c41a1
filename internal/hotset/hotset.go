// Package hotset estimates a machine's working set beyond its resident
// budget with a deterministic ghost LRU — the shadow-list technique the
// memory-disaggregation literature (Memtrade, and the Maruf & Chowdhury
// survey) uses to drive cross-tenant memory reallocation.
//
// The resident LRU list in internal/core only knows what IS local; it cannot
// say how much a VM would gain from more local DRAM. The ghost list answers
// that: every page evicted from the resident list drops its key into a
// bounded shadow list ordered by eviction recency. When a later fault hits
// the shadow list at depth d, that fault would have been a resident hit had
// the LRU been d pages larger — so the histogram of ghost-hit depths IS the
// miss-ratio curve beyond the current capacity, and its tail locates the
// working-set size.
//
// Two properties are load-bearing and must survive any change here, exactly
// as for internal/trace:
//
//  1. Tracking is pure observation. A Tracker draws no randomness and
//     charges no virtual time, so a run's simulated results are bit-for-bit
//     identical with tracking on, off, or absent (the nil *Tracker is a
//     valid, inert tracker — every method is nil-safe).
//  2. Tracker state is a function of the logical fault/evict sequence only.
//     The monitor's worker parallelism changes WHEN work happens in virtual
//     time, never WHAT work happens (the shardtest oracle proves the
//     sequence invariant), so the same seed yields the same ghost list, the
//     same depth histogram, and the same WSS estimate at any worker count —
//     which the oracle's hotset digest asserts.
package hotset

import (
	"fmt"
	"hash/fnv"
	"math"
)

// Params sizes a Tracker.
type Params struct {
	// GhostCapacity bounds the shadow list in pages: how far beyond the
	// resident capacity the miss-ratio curve can see. Must be >= 1.
	GhostCapacity int
	// BucketPages is the depth-histogram bucket width in pages. Must be
	// >= 1. Smaller buckets give the arbiter a finer-grained curve at the
	// cost of more histogram cells.
	BucketPages int
}

// DefaultParams returns a tracker sized for a monitor with the given
// resident LRU capacity: the ghost list sees one full capacity's worth of
// evicted pages beyond the resident list (enough for the arbiter to price a
// doubling), in 16 curve buckets.
func DefaultParams(lruCapacity int) Params {
	if lruCapacity < 1 {
		lruCapacity = 1
	}
	bucket := lruCapacity / 16
	if bucket < 1 {
		bucket = 1
	}
	return Params{GhostCapacity: lruCapacity, BucketPages: bucket}
}

// ghostNode is one evicted page key in the shadow list, linked to its
// neighbours by slab index. A free node's next chains the free list.
type ghostNode struct {
	addr       uint64
	prev, next int32
}

// Tracker is the ghost-LRU working-set estimator. It is not safe for
// concurrent use, matching the single-threaded simulator. The nil Tracker is
// valid and records nothing, so the monitor's hooks never need an enabled
// check.
type Tracker struct {
	params Params
	// The shadow list is circular over the nodes slab through the sentinel
	// nodes[0]: its next is the most recent ghost, its prev the oldest. free is
	// the first reusable node (0: none); index maps a page to its node, so
	// len(index) is the list's length (DESIGN.md §12).
	nodes []ghostNode
	free  int32
	index map[uint64]int32

	faults    uint64
	ghostHits uint64
	evictions uint64
	// hits[i] counts ghost hits at depths (i*BucketPages, (i+1)*BucketPages].
	hits []uint64
}

// New builds a Tracker, rejecting non-positive sizes loudly — a ghost list
// that cannot hold a page or a bucket that cannot span one is always a
// configuration bug.
func New(p Params) (*Tracker, error) {
	if p.GhostCapacity < 1 || p.GhostCapacity > math.MaxInt32 {
		return nil, fmt.Errorf("hotset: ghost capacity %d outside [1, 2^31)", p.GhostCapacity)
	}
	if p.BucketPages < 1 {
		return nil, fmt.Errorf("hotset: bucket width %d < 1 page", p.BucketPages)
	}
	buckets := (p.GhostCapacity + p.BucketPages - 1) / p.BucketPages
	return &Tracker{
		params: p,
		nodes:  make([]ghostNode, 1),
		index:  make(map[uint64]int32),
		hits:   make([]uint64, buckets),
	}, nil
}

// unlink drops node i from the shadow list and the index onto the free list.
func (t *Tracker) unlink(i int32) {
	n := t.nodes[i]
	t.nodes[n.prev].next = n.next
	t.nodes[n.next].prev = n.prev
	delete(t.index, n.addr)
	t.nodes[i].next, t.free = t.free, i
}

// Fault observes one monitor fault (a miss in the resident list). If the
// page sits in the ghost list, its 1-based depth from the most recent
// eviction feeds the miss-ratio curve and the page leaves the shadow list
// (it is resident again). Cold faults (never evicted, or evicted long enough
// ago to have aged off the bounded list) count toward the fault total only.
func (t *Tracker) Fault(addr uint64) {
	if t == nil {
		return
	}
	t.faults++
	node, ok := t.index[addr]
	if !ok {
		return
	}
	depth := 1
	for i := t.nodes[0].next; i != node; i = t.nodes[i].next {
		depth++
	}
	t.ghostHits++
	bucket := (depth - 1) / t.params.BucketPages
	if bucket >= len(t.hits) {
		bucket = len(t.hits) - 1
	}
	t.hits[bucket]++
	t.unlink(node)
}

// Evict observes one eviction from the resident list: the page key enters
// the shadow list at the most-recent position, displacing the oldest ghost
// entry if the list is full. Re-evicting a page already shadowed (possible
// only if the monitor failed to report the intervening fault) refreshes its
// position.
func (t *Tracker) Evict(addr uint64) {
	if t == nil {
		return
	}
	t.evictions++
	if node, ok := t.index[addr]; ok {
		t.unlink(node)
	}
	if len(t.index) == t.params.GhostCapacity {
		t.unlink(t.nodes[0].prev)
	}
	i := t.free
	if i == 0 {
		i = int32(len(t.nodes))
		t.nodes = append(t.nodes, ghostNode{})
	} else {
		t.free = t.nodes[i].next
	}
	t.nodes[i] = ghostNode{addr: addr, next: t.nodes[0].next}
	t.nodes[t.nodes[0].next].prev = i
	t.nodes[0].next = i
	t.index[addr] = i
}

// Remove forgets a page entirely (balloon discard, VM teardown): the page's
// contents are gone, so a later fault on the same address is a fresh page,
// not a re-reference — it must not register as a ghost hit and skew the
// working-set estimate.
func (t *Tracker) Remove(addr uint64) {
	if t == nil {
		return
	}
	if node, ok := t.index[addr]; ok {
		t.unlink(node)
	}
}

// Contains reports shadow-list membership (tests, introspection).
func (t *Tracker) Contains(addr uint64) bool {
	if t == nil {
		return false
	}
	_, ok := t.index[addr]
	return ok
}

// Len reports the shadow-list population.
func (t *Tracker) Len() int {
	if t == nil {
		return 0
	}
	return len(t.index)
}

// Curve is the observed miss-ratio curve beyond the resident capacity:
// Hits[i] counts faults that would have been resident hits with between
// i*BucketPages (exclusive) and (i+1)*BucketPages (inclusive) extra pages of
// local DRAM.
type Curve struct {
	BucketPages int
	Hits        []uint64
}

// HitsWithin returns the number of observed faults that at most `pages`
// extra pages of capacity would have absorbed — the predicted fault savings
// of a grant of that size. Partial buckets are excluded (conservative).
func (c Curve) HitsWithin(pages int) uint64 {
	if c.BucketPages <= 0 {
		return 0
	}
	full := pages / c.BucketPages
	var sum uint64
	for i := 0; i < full && i < len(c.Hits); i++ {
		sum += c.Hits[i]
	}
	return sum
}

// Total returns all ghost hits in the curve.
func (c Curve) Total() uint64 {
	var sum uint64
	for _, h := range c.Hits {
		sum += h
	}
	return sum
}

// Sub returns the bucket-wise difference c - prev: the curve of the window
// between two cumulative snapshots. Counters are monotone, so each cell of
// prev is <= the matching cell of c. The difference is written over dst's
// backing array, which grows only when it is shorter than c.
func (c Curve) Sub(prev Curve, dst []uint64) Curve {
	out := Curve{BucketPages: c.BucketPages, Hits: append(dst[:0], c.Hits...)}
	for i := range prev.Hits {
		if i < len(out.Hits) {
			out.Hits[i] -= prev.Hits[i]
		}
	}
	return out
}

// Snapshot is a point-in-time copy of the tracker's cumulative counters.
type Snapshot struct {
	// Faults counts every observed miss; GhostHits the subset that hit the
	// shadow list; Evictions the pages pushed into it.
	Faults    uint64
	GhostHits uint64
	Evictions uint64
	// GhostLen is the current shadow-list population.
	GhostLen int
	// Curve is the cumulative miss-ratio curve beyond resident capacity.
	Curve Curve
}

// Snapshot copies the tracker's counters (zero value for nil).
func (t *Tracker) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	return Snapshot{
		Faults:    t.faults,
		GhostHits: t.ghostHits,
		Evictions: t.evictions,
		GhostLen:  len(t.index),
		Curve:     Curve{BucketPages: t.params.BucketPages, Hits: append([]uint64(nil), t.hits...)},
	}
}

// WSSEstimate returns the working-set-size estimate in pages for a machine
// whose resident budget is `capacity`: the capacity plus the smallest ghost
// depth (rounded up to a bucket boundary) that covers `pct` percent of the
// observed ghost hits. With no ghost hits the working set fits in capacity
// and the estimate is the capacity itself. Pure integer arithmetic — no
// floats, so the estimate is bit-stable across platforms.
func (s Snapshot) WSSEstimate(capacity, pct int) int {
	total := s.Curve.Total()
	if total == 0 {
		return capacity
	}
	need := (total*uint64(pct) + 99) / 100
	var cum uint64
	for i, h := range s.Curve.Hits {
		cum += h
		if cum >= need {
			return capacity + (i+1)*s.Curve.BucketPages
		}
	}
	return capacity + len(s.Curve.Hits)*s.Curve.BucketPages
}

// Digest folds everything logically observable — the counters, the depth
// histogram, and the full ordered shadow-list contents — through FNV-1a.
// This is the quantity the shardtest oracle asserts identical across worker
// counts.
func (t *Tracker) Digest() uint64 {
	if t == nil {
		return 0
	}
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for b := 0; b < 8; b++ {
			buf[b] = byte(v >> (8 * b))
		}
		h.Write(buf[:])
	}
	word(t.faults)
	word(t.ghostHits)
	word(t.evictions)
	word(uint64(len(t.hits)))
	for _, hit := range t.hits {
		word(hit)
	}
	for i := t.nodes[0].next; i != 0; i = t.nodes[i].next {
		word(t.nodes[i].addr)
	}
	return h.Sum64()
}
