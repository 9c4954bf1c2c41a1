//go:build !race

package hotset

import "testing"

// TestGhostListAllocFree pins the slab list's point: once the slab holds
// GhostCapacity nodes and the index has grown, an eviction (which ages the
// oldest ghost off), a ghost hit and a removal allocate nothing. The parent's
// container/list made one element and one boxed entry per eviction.
// (Not under -race: the detector's instrumentation allocates.)
func TestGhostListAllocFree(t *testing.T) {
	const capacity = 256
	tr := mustNew(t, Params{GhostCapacity: capacity, BucketPages: 16})
	page := uint64(capacity)
	cycle := func() {
		tr.Evict(page << 12)
		tr.Evict((page + 1) << 12)
		tr.Fault((page - capacity/2) << 12)      // a ghost hit at depth ≈ capacity/2
		tr.Remove((page + 1 - capacity/4) << 12) // odd pages: never the faulted ones
		page += 2
	}
	for i := 0; i < 8*capacity; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(10_000, cycle); avg != 0 {
		t.Fatalf("ghost list allocates %.3f times per Evict/Evict/Fault/Remove, want 0", avg)
	}
	if tr.Len() == 0 || tr.Snapshot().GhostHits == 0 {
		t.Fatalf("cycle exercised nothing: len %d, %+v", tr.Len(), tr.Snapshot())
	}
}
