package memcached

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/storetest"
)

func TestConformance(t *testing.T) {
	storetest.Run(t, func() kvstore.Store {
		return New(DefaultParams(), 1)
	})
}

// TestReadStableUnderEviction runs the read contract's check on a store of
// two slab pages under a stream of new keys: capacity eviction drops items,
// held ones included, without reusing their buffers.
func TestReadStableUnderEviction(t *testing.T) {
	p := DefaultParams()
	p.CapacityBytes = 2 << 20
	s := New(p, 3)
	next := 0
	storetest.ReadStableUntilWrite(t, s, func(t *testing.T, now time.Duration) time.Duration {
		for j := 0; j < 64; j++ {
			done, err := s.Put(now, storetest.OtherKey(1000+next), storetest.Page(byte(next)))
			if err != nil {
				t.Fatal(err)
			}
			now, next = done, next+1
		}
		return now
	})
	if s.Stats().Evictions == 0 {
		t.Fatal("the churn never evicted")
	}
}

func TestRTTDominatesLatency(t *testing.T) {
	s := New(DefaultParams(), 2)
	key := kvstore.MakeKey(0x1000, 1)
	if _, err := s.Put(0, key, storetest.Page(1)); err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	const n = 1000
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		now += time.Millisecond
		_, done, err := s.Get(now, key)
		if err != nil {
			t.Fatal(err)
		}
		total += done - now
		now = done
	}
	avg := total / n
	// TCP over IP-over-IB: tens of microseconds, far above RAMCloud's ~15 µs.
	if avg < 60*time.Microsecond || avg > 85*time.Microsecond {
		t.Fatalf("avg RTT = %v, want ≈70µs", avg)
	}
}

func TestLRUEvictionUnderPressure(t *testing.T) {
	p := DefaultParams()
	p.CapacityBytes = 2 * slabPageSize // tiny store
	s := New(p, 3)
	perSlab := slabPageSize / (kvstore.PageSize + 80)
	n := 3 * perSlab // overflow capacity
	for i := 0; i < n; i++ {
		if _, err := s.Put(0, kvstore.MakeKey(uint64(i)*kvstore.PageSize, 1), storetest.Page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite overflow")
	}
	// The oldest keys are gone, the newest survive.
	if _, _, err := s.Get(0, kvstore.MakeKey(0, 1)); err == nil {
		t.Fatal("oldest key survived LRU eviction")
	}
	got, _, err := s.Get(0, kvstore.MakeKey(uint64(n-1)*kvstore.PageSize, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, storetest.Page(byte(n-1))) {
		t.Fatal("newest key corrupted")
	}
}

func TestGetRefreshesLRU(t *testing.T) {
	p := DefaultParams()
	p.CapacityBytes = 2 * slabPageSize
	s := New(p, 4)
	perSlab := slabPageSize / (kvstore.PageSize + 80)
	hot := kvstore.MakeKey(0, 1)
	if _, err := s.Put(0, hot, storetest.Page(0xAA)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3*perSlab; i++ {
		// Touch the hot key between inserts so it stays at the LRU tail.
		if _, _, err := s.Get(0, hot); err != nil {
			t.Fatalf("hot key evicted at insert %d", i)
		}
		if _, err := s.Put(0, kvstore.MakeKey(uint64(i)*kvstore.PageSize, 1), storetest.Page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Get(0, hot); err != nil {
		t.Fatal("frequently read key was evicted")
	}
}

func TestSlabClassSelection(t *testing.T) {
	s := New(DefaultParams(), 5)
	if got := s.classFor(kvstore.PageSize); got != len(chunkSizes)-1 {
		t.Fatalf("page class = %d, want largest class", got)
	}
	if got := s.classFor(100); got != 0 {
		t.Fatalf("class for 100B = %d, want 0", got)
	}
	if got := s.classFor(1 << 20); got != len(chunkSizes)-1 {
		t.Fatalf("oversized class = %d", got)
	}
}

func TestOverwriteDoesNotLeakChunks(t *testing.T) {
	s := New(DefaultParams(), 6)
	key := kvstore.MakeKey(0x1000, 1)
	for i := 0; i < 100; i++ {
		if _, err := s.Put(0, key, storetest.Page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after overwrites", s.Len())
	}
	class := s.classes[s.classFor(kvstore.PageSize)]
	if class.used != 1 {
		t.Fatalf("chunks used = %d, want 1", class.used)
	}
}

// A store smaller than one slab page cannot hold a page: Put and MultiPut
// must refuse with ErrOutOfMemory and store nothing, never report success
// for a write the next Get cannot find.
func TestWriteBelowOneSlabRefused(t *testing.T) {
	p := DefaultParams()
	p.CapacityBytes = slabPageSize / 2
	s := New(p, 7)
	key := kvstore.MakeKey(0x1000, 1)
	if _, err := s.Put(0, key, storetest.Page(1)); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Put err = %v, want ErrOutOfMemory", err)
	}
	keys := []kvstore.Key{key, kvstore.MakeKey(0x2000, 1)}
	if _, err := s.MultiPut(0, keys, [][]byte{storetest.Page(2), storetest.Page(3)}); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("MultiPut err = %v, want ErrOutOfMemory", err)
	}
	if st := s.Stats(); s.Len() != 0 || st.Puts != 0 || st.MultiPuts != 0 || st.BytesStored != 0 {
		t.Fatalf("refused writes left state: len %d, stats %+v", s.Len(), st)
	}
	if _, _, err := s.Get(0, key); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("Get err = %v, want ErrNotFound", err)
	}

	// One slab page is enough: the write lands and reads back.
	p.CapacityBytes = slabPageSize
	s = New(p, 7)
	if _, err := s.MultiPut(0, keys, [][]byte{storetest.Page(2), storetest.Page(3)}); err != nil {
		t.Fatal(err)
	}
	if got, _, err := s.Get(0, keys[1]); err != nil || !bytes.Equal(got, storetest.Page(3)) {
		t.Fatalf("Get after MultiPut: err = %v", err)
	}
}
