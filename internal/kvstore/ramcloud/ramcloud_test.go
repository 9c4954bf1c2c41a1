package ramcloud

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

// TestReadStableUnderCleaning runs the read contract's check on a log of four
// segments under overwrite churn heavy enough to clean: the cleaner moves
// live objects by pointer, so a held read buffer keeps its bytes.
func TestReadStableUnderCleaning(t *testing.T) {
	p := DefaultParams()
	p.CapacityBytes = 4 * segmentSize
	s := New(p, 5)
	next := 0
	storetest.ReadStableUntilWrite(t, s, func(t *testing.T, now time.Duration) time.Duration {
		for j := 0; j < 200; j++ {
			done, err := s.Put(now, storetest.OtherKey(1000+next%(entriesPerSegment/2)), storetest.Page(byte(next)))
			if err != nil {
				t.Fatal(err)
			}
			now, next = done, next+1
		}
		return now
	})
	if s.Cleanings() == 0 {
		t.Fatal("the churn never cleaned the log")
	}
}

// TestTakeUnderCleaning runs the take clause's check under the same cleaning
// churn: a taken object stays live, so the cleaner relocates it, with no
// payload, and it must neither gain one nor hand one out.
func TestTakeUnderCleaning(t *testing.T) {
	p := DefaultParams()
	p.CapacityBytes = 4 * segmentSize
	s := New(p, 5)
	next := 0
	storetest.TakeUntilWrite(t, s, func(t *testing.T, now time.Duration) time.Duration {
		for j := 0; j < 200; j++ {
			done, err := s.Put(now, storetest.OtherKey(1000+next%(entriesPerSegment/2)), storetest.Page(byte(next)))
			if err != nil {
				t.Fatal(err)
			}
			now, next = done, next+1
		}
		return now
	})
	if s.Cleanings() == 0 {
		t.Fatal("the churn never cleaned the log")
	}
}

func TestReadLatencyNearTableI(t *testing.T) {
	s := New(DefaultParams(), 2)
	key := kvstore.MakeKey(0x1000, 1)
	if _, err := s.Put(0, key, storetest.Page(1)); err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	const n = 2000
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		now += time.Millisecond // idle gap so queueing never builds up
		_, done, err := s.Get(now, key)
		if err != nil {
			t.Fatal(err)
		}
		total += done - now
		now = done
	}
	avg := total / n
	// Paper Table I: READ_PAGE 15.62 µs average.
	if avg < 13*time.Microsecond || avg > 19*time.Microsecond {
		t.Fatalf("avg read latency = %v, want ≈15.6µs", avg)
	}
}

func TestLogRollsSegments(t *testing.T) {
	p := DefaultParams()
	s := New(p, 3)
	// Write more pages than fit in one segment.
	n := entriesPerSegment + 10
	for i := 0; i < n; i++ {
		key := kvstore.MakeKey(uint64(i)*kvstore.PageSize, 1)
		if _, err := s.Put(0, key, storetest.Page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.SegmentCount() < 2 {
		t.Fatalf("SegmentCount = %d, want ≥2", s.SegmentCount())
	}
	// All pages still readable.
	for i := 0; i < n; i += 97 {
		key := kvstore.MakeKey(uint64(i)*kvstore.PageSize, 1)
		got, _, err := s.Get(0, key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, storetest.Page(byte(i))) {
			t.Fatalf("page %d corrupted", i)
		}
	}
}

func TestOverwritesCreateDeadEntriesAndCleanerReclaims(t *testing.T) {
	p := DefaultParams()
	// Small capacity: 4 segments.
	p.CapacityBytes = 4 * segmentSize
	s := New(p, 4)
	key := func(i int) kvstore.Key { return kvstore.MakeKey(uint64(i)*kvstore.PageSize, 1) }

	// Fill ~1.5 segments with live pages, then overwrite them repeatedly so
	// old segments become mostly dead. Without the cleaner this would exceed
	// capacity; with it, the store keeps accepting writes.
	liveSet := entriesPerSegment / 2
	for round := 0; round < 12; round++ {
		for i := 0; i < liveSet; i++ {
			if _, err := s.Put(0, key(i), storetest.Page(byte(round))); err != nil {
				t.Fatalf("round %d page %d: %v", round, i, err)
			}
		}
	}
	if s.Cleanings() == 0 {
		t.Fatal("cleaner never ran despite heavy overwrite churn")
	}
	// Data integrity after cleaning.
	for i := 0; i < liveSet; i++ {
		got, _, err := s.Get(0, key(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, storetest.Page(11)) {
			t.Fatalf("page %d lost its last write after cleaning", i)
		}
	}
}

func TestOutOfMemoryOnLiveData(t *testing.T) {
	p := DefaultParams()
	p.CapacityBytes = 2 * segmentSize
	s := New(p, 5)
	// All-live data (unique keys) cannot be cleaned away.
	var sawOOM bool
	for i := 0; i < 3*entriesPerSegment; i++ {
		_, err := s.Put(0, kvstore.MakeKey(uint64(i)*kvstore.PageSize, 1), storetest.Page(1))
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("err = %v", err)
			}
			sawOOM = true
			break
		}
	}
	if !sawOOM {
		t.Fatal("store accepted more live data than its capacity")
	}
}

// TestMultiPutOutOfMemoryLeavesBatchUntouched pins batch atomicity under
// resource exhaustion: the batch used to append until the log was full and
// fail with a prefix written — old versions killed, the caller unable to tell
// which. Whether the whole batch fits is now decided before the first append.
func TestMultiPutOutOfMemoryLeavesBatchUntouched(t *testing.T) {
	p := DefaultParams()
	p.CapacityBytes = 2 * segmentSize
	s := New(p, 5)
	key := func(i int) kvstore.Key { return kvstore.MakeKey(uint64(i)*kvstore.PageSize, 1) }
	// All-live data the cleaner cannot reclaim, ten entries short of full.
	const room = 10
	live := 2*entriesPerSegment - room
	for i := 0; i < live; i++ {
		if _, err := s.Put(0, key(i), storetest.Page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Twenty writes, the first five of them overwrites: ten would fit.
	var keys []kvstore.Key
	var pages [][]byte
	for i := 0; i < 2*room; i++ {
		keys = append(keys, key(live-5+i))
		pages = append(pages, storetest.Page(200))
	}
	stats, segments, head, indexed := s.Stats(), s.SegmentCount(), len(s.head.entries), len(s.index)
	refs := map[kvstore.Key]entryRef{}
	for _, k := range keys {
		if ref, ok := s.index[k]; ok {
			refs[k] = ref
		}
	}
	if err := storetest.MultiPutMustFail(t, s, 0, keys, pages); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if s.Stats() != stats || s.SegmentCount() != segments || len(s.head.entries) != head || len(s.index) != indexed {
		t.Fatalf("failed batch changed the log: stats %+v→%+v, segments %d→%d, head %d→%d, index %d→%d",
			stats, s.Stats(), segments, s.SegmentCount(), head, len(s.head.entries), indexed, len(s.index))
	}
	for i, k := range keys {
		ref, ok := s.index[k]
		if want, existed := refs[k]; ok != existed || ref != want {
			t.Fatalf("key %d: index entry changed by the failed batch", i)
		}
		if ok && !bytes.Equal(ref.segment.entries[ref.slot].data, storetest.Page(byte(live-5+i))) {
			t.Fatalf("key %d: live version damaged by the failed batch", i)
		}
	}
	// The half that fits still goes in.
	if _, err := s.MultiPut(0, keys[:room], pages[:room]); err != nil {
		t.Fatalf("batch that fits: %v", err)
	}
}

// TestMultiPutCleansToFit is the batch twin of the cleaner test above: when a
// batch needs a segment the log has no room for, cleaning makes it.
func TestMultiPutCleansToFit(t *testing.T) {
	p := DefaultParams()
	p.CapacityBytes = 4 * segmentSize
	s := New(p, 4)
	const batch = 32
	liveSet := entriesPerSegment / 2 / batch * batch
	keys := make([]kvstore.Key, batch)
	pages := make([][]byte, batch)
	for round := 0; round < 12; round++ {
		for base := 0; base < liveSet; base += batch {
			for j := range keys {
				keys[j] = kvstore.MakeKey(uint64(base+j)*kvstore.PageSize, 1)
				if pages[j] == nil {
					pages[j] = make([]byte, kvstore.PageSize)
				}
				copy(pages[j], storetest.Page(byte(round)))
			}
			if _, err := s.MultiPut(0, keys, pages); err != nil {
				t.Fatalf("round %d base %d: %v", round, base, err)
			}
		}
	}
	if s.Cleanings() == 0 {
		t.Fatal("cleaner never ran despite heavy overwrite churn")
	}
	for i := 0; i < liveSet; i++ {
		got, _, err := s.Get(0, kvstore.MakeKey(uint64(i)*kvstore.PageSize, 1))
		if err != nil || !bytes.Equal(got, storetest.Page(11)) {
			t.Fatalf("page %d lost its last write after cleaning (%v)", i, err)
		}
	}
}

func TestUtilizationDropsWithChurn(t *testing.T) {
	s := New(DefaultParams(), 6)
	// Seal a segment full of pages, then kill most of them by overwriting.
	for i := 0; i < entriesPerSegment+1; i++ {
		if _, err := s.Put(0, kvstore.MakeKey(uint64(i)*kvstore.PageSize, 1), storetest.Page(1)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Utilization()
	for i := 0; i < entriesPerSegment; i++ {
		if _, err := s.Put(0, kvstore.MakeKey(uint64(i)*kvstore.PageSize, 1), storetest.Page(2)); err != nil {
			t.Fatal(err)
		}
	}
	after := s.Utilization()
	if after >= before {
		t.Fatalf("utilization %v → %v, want a drop after overwrites", before, after)
	}
}

func TestMultiPutFasterThanSerialWrites(t *testing.T) {
	// The async-writeback optimisation depends on multi-write amortisation
	// (§V-B); quantify it.
	const n = 64
	s := New(DefaultParams(), 7)
	var keys []kvstore.Key
	var pages [][]byte
	for i := 0; i < n; i++ {
		keys = append(keys, kvstore.MakeKey(uint64(i)*kvstore.PageSize, 1))
		pages = append(pages, storetest.Page(byte(i)))
	}
	batchDone, err := s.MultiPut(0, keys, pages)
	if err != nil {
		t.Fatal(err)
	}
	perPage := batchDone / n
	if perPage > 6*time.Microsecond {
		t.Fatalf("amortised write cost %v/page, want well under one RTT", perPage)
	}
}

// TestOverwriteLogMetadataBoundedByLiveSet pins the fix for the log-metadata
// leak. At the default 25 GB nominal capacity the cleaner never runs, so a
// steady overwrite workload seals one fully dead segment after another; each
// used to keep its 2016-entry array for ever (≈29 MiB per million writes).
// The arrays are now recycled, so the number ever allocated tracks the live
// set, while the log's accounting — segment records, utilization, and with
// them logBytes, clean() and the ErrOutOfMemory point — reads exactly as it
// did (the SegmentCount and Utilization below are what the leaking store
// reported: 125 and 0.019937275985663083).
func TestOverwriteLogMetadataBoundedByLiveSet(t *testing.T) {
	const keys, rounds = 5000, 50
	s := New(DefaultParams(), 9)
	page := storetest.Page(7)
	now := time.Duration(0)
	for r := 0; r < rounds; r++ {
		for i := 0; i < keys; i++ {
			key := kvstore.MakeKey(uint64(i)*kvstore.PageSize, 1)
			done, err := s.Put(now, key, page)
			if err != nil {
				t.Fatal(err)
			}
			now = done
		}
	}
	// 250 000 appends: 124 sealed segments and 16 entries in the head, all
	// live; the other 4984 live entries sit in sealed segments.
	if got, want := s.SegmentCount(), 125; got != want {
		t.Fatalf("SegmentCount = %d, want %d: released segments must stay in the log's accounting", got, want)
	}
	if got, want := s.Utilization(), 4984.0/(124*entriesPerSegment); got != want {
		t.Fatalf("Utilization = %v, want %v", got, want)
	}
	if s.Cleanings() != 0 {
		t.Fatalf("cleaner ran %d times at default capacity", s.Cleanings())
	}
	// The live set spans ⌈5000/2016⌉ = 3 segments' worth of entries; a
	// segment dies once the next round has rewritten all of its keys, so at
	// most one more is partly dead, plus the head.
	liveSegments := (keys + entriesPerSegment - 1) / entriesPerSegment
	if s.entryArrays > liveSegments+2 {
		t.Fatalf("%d entry arrays allocated for %d segments of live data (%d segments rolled)",
			s.entryArrays, liveSegments, s.SegmentCount())
	}
	for i := 0; i < keys; i += 61 {
		key := kvstore.MakeKey(uint64(i)*kvstore.PageSize, 1)
		got, _, err := s.Get(now, key)
		if err != nil || !bytes.Equal(got, page) {
			t.Fatalf("key %d unreadable after %d overwrite rounds: %v", i, rounds, err)
		}
	}
}

// BenchmarkRamcloudOverwrite is the log's ledger row for the write-back
// path: one Put per op over a fixed key set, so every op kills an entry,
// appends one, and every 2016th rolls the head.
func BenchmarkRamcloudOverwrite(b *testing.B) {
	const keys = 4096
	s := New(DefaultParams(), 1)
	page := storetest.Page(3)
	for i := 0; i < keys; i++ {
		if _, err := s.Put(0, kvstore.MakeKey(uint64(i)*kvstore.PageSize, 1), page); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := time.Duration(0)
	for i := 0; i < b.N; i++ {
		done, err := s.Put(now, kvstore.MakeKey(uint64(i%keys)*kvstore.PageSize, 1), page)
		if err != nil {
			b.Fatal(err)
		}
		now = done
	}
}

// BenchmarkMultiPut32 is the log's ledger row for a write-back flush.
func BenchmarkMultiPut32(b *testing.B) {
	storetest.BenchMultiPut(b, New(DefaultParams(), 1), 32)
}
