package hotset

import "testing"

func mustNew(t *testing.T, p Params) *Tracker {
	t.Helper()
	tr, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	cases := []Params{
		{GhostCapacity: 0, BucketPages: 1},
		{GhostCapacity: -4, BucketPages: 1},
		{GhostCapacity: 8, BucketPages: 0},
		{GhostCapacity: 8, BucketPages: -1},
	}
	for _, p := range cases {
		if _, err := New(p); err == nil {
			t.Errorf("New(%+v) accepted an unusable size", p)
		}
	}
	if _, err := New(Params{GhostCapacity: 1, BucketPages: 1}); err != nil {
		t.Fatalf("minimal params rejected: %v", err)
	}
}

func TestNilTrackerIsInert(t *testing.T) {
	var tr *Tracker
	tr.Fault(0x1000)
	tr.Evict(0x1000)
	tr.Remove(0x1000)
	if tr.Len() != 0 || tr.Contains(0x1000) || tr.Digest() != 0 {
		t.Fatal("nil tracker not inert")
	}
	if s := tr.Snapshot(); s.Faults != 0 || s.GhostHits != 0 {
		t.Fatal("nil tracker snapshot not zero")
	}
}

// A fault on the page evicted most recently is a depth-1 ghost hit; deeper
// evictions land in deeper buckets; a hit removes the page from the list.
func TestGhostHitDepths(t *testing.T) {
	tr := mustNew(t, Params{GhostCapacity: 8, BucketPages: 2})
	for i := 0; i < 4; i++ {
		tr.Evict(uint64(0x1000 * (i + 1)))
	}
	// Most recent eviction was 0x4000 (depth 1, bucket 0); 0x1000 is the
	// oldest (depth 4, bucket 1).
	tr.Fault(0x4000)
	tr.Fault(0x1000) // now depth 3 after the first hit removed 0x4000
	s := tr.Snapshot()
	if s.Faults != 2 || s.GhostHits != 2 {
		t.Fatalf("counters: %+v", s)
	}
	if s.Curve.Hits[0] != 1 || s.Curve.Hits[1] != 1 {
		t.Fatalf("depth histogram: %v", s.Curve.Hits)
	}
	if tr.Contains(0x4000) || tr.Contains(0x1000) {
		t.Fatal("ghost hit did not remove the page")
	}
	if tr.Len() != 2 {
		t.Fatalf("ghost len = %d, want 2", tr.Len())
	}
}

// The shadow list is bounded: the oldest ghost ages off, and a fault on an
// aged-off page is a cold miss, not a hit.
func TestGhostCapacityBound(t *testing.T) {
	tr := mustNew(t, Params{GhostCapacity: 3, BucketPages: 1})
	for i := 0; i < 5; i++ {
		tr.Evict(uint64(0x1000 * (i + 1)))
	}
	if tr.Len() != 3 {
		t.Fatalf("ghost len = %d, want 3", tr.Len())
	}
	if tr.Contains(0x1000) || tr.Contains(0x2000) {
		t.Fatal("oldest ghosts did not age off")
	}
	tr.Fault(0x1000)
	s := tr.Snapshot()
	if s.GhostHits != 0 {
		t.Fatal("aged-off page counted as a ghost hit")
	}
	if s.Faults != 1 {
		t.Fatalf("faults = %d, want 1", s.Faults)
	}
}

// Remove (balloon discard, teardown) silently forgets the page: no hit, no
// fault, and a later fault on the address is cold.
func TestRemoveForgetsWithoutSkew(t *testing.T) {
	tr := mustNew(t, Params{GhostCapacity: 8, BucketPages: 1})
	tr.Evict(0x1000)
	tr.Remove(0x1000)
	if tr.Contains(0x1000) || tr.Len() != 0 {
		t.Fatal("remove left the page shadowed")
	}
	tr.Fault(0x1000)
	if s := tr.Snapshot(); s.GhostHits != 0 {
		t.Fatal("discarded page registered as a re-reference")
	}
	// Removing an unknown page is a no-op.
	tr.Remove(0x9000)
}

// Deep hits beyond the last bucket clamp into it rather than vanishing.
func TestDeepHitClampsToLastBucket(t *testing.T) {
	tr := mustNew(t, Params{GhostCapacity: 5, BucketPages: 2})
	for i := 0; i < 5; i++ {
		tr.Evict(uint64(0x1000 * (i + 1)))
	}
	tr.Fault(0x1000) // depth 5; buckets cover depths 1-2, 3-4, 5-6
	s := tr.Snapshot()
	if len(s.Curve.Hits) != 3 || s.Curve.Hits[2] != 1 {
		t.Fatalf("deep hit not in last bucket: %v", s.Curve.Hits)
	}
}

func TestCurveHitsWithinAndSub(t *testing.T) {
	c := Curve{BucketPages: 4, Hits: []uint64{10, 5, 1}}
	if got := c.HitsWithin(4); got != 10 {
		t.Fatalf("HitsWithin(4) = %d, want 10", got)
	}
	if got := c.HitsWithin(7); got != 10 {
		t.Fatalf("HitsWithin(7) must exclude the partial bucket, got %d", got)
	}
	if got := c.HitsWithin(8); got != 15 {
		t.Fatalf("HitsWithin(8) = %d, want 15", got)
	}
	if got := c.HitsWithin(100); got != 16 {
		t.Fatalf("HitsWithin(100) = %d, want 16", got)
	}
	prev := Curve{BucketPages: 4, Hits: []uint64{4, 5, 0}}
	d := c.Sub(prev, nil)
	if d.Hits[0] != 6 || d.Hits[1] != 0 || d.Hits[2] != 1 {
		t.Fatalf("Sub: %v", d.Hits)
	}
	if c.Hits[0] != 10 {
		t.Fatal("Sub mutated the receiver")
	}
	// A window written over the last one's buffer reuses it.
	buf := d.Hits
	if e := c.Sub(c, buf); &e.Hits[0] != &buf[0] || e.Total() != 0 {
		t.Fatalf("Sub over a buffer: %v, reused %v", e.Hits, &e.Hits[0] == &buf[0])
	}
}

func TestWSSEstimate(t *testing.T) {
	// No ghost hits: the working set fits in capacity.
	s := Snapshot{Curve: Curve{BucketPages: 4, Hits: []uint64{0, 0}}}
	if got := s.WSSEstimate(64, 90); got != 64 {
		t.Fatalf("flat curve WSS = %d, want 64", got)
	}
	// 90% of hits inside the first bucket: WSS = capacity + 1 bucket.
	s = Snapshot{Curve: Curve{BucketPages: 4, Hits: []uint64{9, 1}}}
	if got := s.WSSEstimate(64, 90); got != 68 {
		t.Fatalf("steep curve WSS = %d, want 68", got)
	}
	// Tail-heavy: needs both buckets.
	s = Snapshot{Curve: Curve{BucketPages: 4, Hits: []uint64{1, 9}}}
	if got := s.WSSEstimate(64, 90); got != 72 {
		t.Fatalf("tail curve WSS = %d, want 72", got)
	}
}

// The digest must see counters, histogram, and shadow-list order.
func TestDigestSensitivity(t *testing.T) {
	build := func(order []uint64) *Tracker {
		tr := mustNew(t, Params{GhostCapacity: 8, BucketPages: 1})
		for _, a := range order {
			tr.Evict(a)
		}
		return tr
	}
	a := build([]uint64{0x1000, 0x2000, 0x3000})
	b := build([]uint64{0x3000, 0x2000, 0x1000})
	if a.Digest() == b.Digest() {
		t.Fatal("digest blind to shadow-list order")
	}
	c := build([]uint64{0x1000, 0x2000, 0x3000})
	if a.Digest() != c.Digest() {
		t.Fatal("identical histories digest differently")
	}
	c.Fault(0x9000) // cold miss: counters change, list does not
	if a.Digest() == c.Digest() {
		t.Fatal("digest blind to fault counter")
	}
}
