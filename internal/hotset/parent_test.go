package hotset

import (
	"container/list"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
)

// parentTracker is the Tracker as it stood while its shadow list was a
// container/list with one boxed ghostEntry per eviction: the reference the
// slab list is held to, op for op. Copied with the type renamed, New made
// infallible and the nil checks dropped.
type parentTracker struct {
	params Params
	ghost  *list.List
	index  map[uint64]*list.Element

	faults    uint64
	ghostHits uint64
	evictions uint64
	hits      []uint64
}

type ghostEntry struct {
	addr uint64
}

func newParentTracker(p Params) *parentTracker {
	buckets := (p.GhostCapacity + p.BucketPages - 1) / p.BucketPages
	return &parentTracker{
		params: p,
		ghost:  list.New(),
		index:  make(map[uint64]*list.Element),
		hits:   make([]uint64, buckets),
	}
}

func (t *parentTracker) Fault(addr uint64) {
	t.faults++
	elem, ok := t.index[addr]
	if !ok {
		return
	}
	depth := 1
	for e := t.ghost.Front(); e != nil && e != elem; e = e.Next() {
		depth++
	}
	t.ghostHits++
	bucket := (depth - 1) / t.params.BucketPages
	if bucket >= len(t.hits) {
		bucket = len(t.hits) - 1
	}
	t.hits[bucket]++
	t.ghost.Remove(elem)
	delete(t.index, addr)
}

func (t *parentTracker) Evict(addr uint64) {
	t.evictions++
	if elem, ok := t.index[addr]; ok {
		t.ghost.Remove(elem)
		delete(t.index, addr)
	}
	t.index[addr] = t.ghost.PushFront(ghostEntry{addr: addr})
	for t.ghost.Len() > t.params.GhostCapacity {
		oldest := t.ghost.Back()
		t.ghost.Remove(oldest)
		delete(t.index, oldest.Value.(ghostEntry).addr)
	}
}

func (t *parentTracker) Remove(addr uint64) {
	if elem, ok := t.index[addr]; ok {
		t.ghost.Remove(elem)
		delete(t.index, addr)
	}
}

func (t *parentTracker) Contains(addr uint64) bool {
	_, ok := t.index[addr]
	return ok
}

func (t *parentTracker) Len() int { return t.ghost.Len() }

func (t *parentTracker) Snapshot() Snapshot {
	return Snapshot{
		Faults:    t.faults,
		GhostHits: t.ghostHits,
		Evictions: t.evictions,
		GhostLen:  t.ghost.Len(),
		Curve:     Curve{BucketPages: t.params.BucketPages, Hits: append([]uint64(nil), t.hits...)},
	}
}

func (t *parentTracker) Digest() uint64 {
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
	for e := t.ghost.Front(); e != nil; e = e.Next() {
		word(e.Value.(ghostEntry).addr)
	}
	return h.Sum64()
}

// ghostPair runs the Tracker and the parent's in lockstep.
type ghostPair struct {
	tr     *Tracker
	parent *parentTracker
	// pages is the address space ops draw from; Contains is compared over
	// all of it.
	pages int
}

func newGhostPair(t *testing.T, p Params, pages int) *ghostPair {
	return &ghostPair{tr: mustNew(t, p), parent: newParentTracker(p), pages: pages}
}

// op applies one Fault (0), Evict (1) or Remove (2) to both trackers.
func (g *ghostPair) op(kind int, addr uint64) {
	switch kind {
	case 0:
		g.tr.Fault(addr)
		g.parent.Fault(addr)
	case 1:
		g.tr.Evict(addr)
		g.parent.Evict(addr)
	default:
		g.tr.Remove(addr)
		g.parent.Remove(addr)
	}
}

// check requires equal Digest (counters, histogram, full shadow-list order),
// Snapshot, Len and Contains over the whole address space.
func (g *ghostPair) check(t *testing.T, step int) {
	t.Helper()
	if got, want := g.tr.Digest(), g.parent.Digest(); got != want {
		t.Fatalf("op %d: digest %#x, parent %#x", step, got, want)
	}
	if got, want := g.tr.Snapshot(), g.parent.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("op %d: snapshot %+v, parent %+v", step, got, want)
	}
	if got, want := g.tr.Len(), g.parent.Len(); got != want {
		t.Fatalf("op %d: len %d, parent %d", step, got, want)
	}
	for p := 0; p < g.pages; p++ {
		if addr := uint64(p) << 12; g.tr.Contains(addr) != g.parent.Contains(addr) {
			t.Fatalf("op %d: Contains(%#x) = %v, parent %v", step, addr, g.tr.Contains(addr), g.parent.Contains(addr))
		}
	}
}

// TestGhostListMatchesParent drives the slab list and the parent's
// container/list through random Fault/Evict/Remove sequences at every ghost
// capacity 1–64 and bucket width 1–8, over an address space 1.5× the
// capacity (so pages age off, hit at every depth, and come back). Evictions
// are half of the ops and a quarter of them re-evict a page that is already
// shadowed.
func TestGhostListMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for capacity := 1; capacity <= 64; capacity++ {
		for bucket := 1; bucket <= 8; bucket++ {
			pages := capacity + capacity/2 + 2
			g := newGhostPair(t, Params{GhostCapacity: capacity, BucketPages: bucket}, pages)
			shadowed := 0
			for step := 0; step < 400; step++ {
				kind, addr := 0, uint64(rng.Intn(pages))<<12
				switch r := rng.Intn(8); {
				case r < 4:
					kind = 1
					if r == 0 && g.parent.ghost.Len() > 0 {
						// Re-evict a ghost: refresh, not a second entry.
						e := g.parent.ghost.Back()
						for k := rng.Intn(g.parent.ghost.Len()); k > 0; k-- {
							e = e.Prev()
						}
						addr = e.Value.(ghostEntry).addr
						shadowed++
					}
				case r < 7:
					kind = 0
				default:
					kind = 2
				}
				g.op(kind, addr)
				g.check(t, step)
			}
			if shadowed == 0 {
				t.Fatalf("capacity %d bucket %d: no shadowed page was re-evicted", capacity, bucket)
			}
		}
	}
}
