package core

import (
	"bytes"
	"testing"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
)

func page(tag byte) []byte {
	p := make([]byte, kvstore.PageSize)
	for i := range p {
		p[i] = tag
	}
	return p
}

// testWriteback returns a single-worker engine over a table with one region
// of 1024 pages at address 0 under partition 0, so kvstore.Key(n<<12) is the
// region's page n.
func testWriteback(store kvstore.Store, batchSize int) *writeback {
	pages := newPageTable()
	pages.addRegion(0, 1024*PageSize, 1, 0)
	return newWriteback(pages, store, batchSize, 1, nil)
}

// HasZero reports zero-bitmap membership without consuming the mark.
func (w *writeback) HasZero(key kvstore.Key) bool {
	return *w.pages.byKey(key, false)&entZero != 0
}

// inflightOf lists the engine's submitted writes and their completion times.
func inflightOf(w *writeback) map[kvstore.Key]time.Duration {
	m := make(map[kvstore.Key]time.Duration, len(w.inflight))
	for _, i := range w.inflight {
		m[kvstore.Key(w.pages.recs[i].id)] = w.pages.recs[i].done
	}
	return m
}

func TestWritebackFlushAtBatchSize(t *testing.T) {
	store := dram.New(dram.DefaultParams(), 1)
	w := testWriteback(store, 4)
	now := time.Duration(0)
	for i := 0; i < 3; i++ {
		var err error
		if now, err = w.Enqueue(now, kvstore.Key(i<<12), page(byte(i)), true); err != nil {
			t.Fatal(err)
		}
	}
	if w.flushes != 0 || store.Stats().Puts != 0 {
		t.Fatal("flushed before batch threshold")
	}
	if _, err := w.Enqueue(now, kvstore.Key(3<<12), page(3), true); err != nil {
		t.Fatal(err)
	}
	if w.flushes != 1 {
		t.Fatalf("flushes = %d", w.flushes)
	}
	if store.Stats().Puts != 4 {
		t.Fatalf("store puts = %d", store.Stats().Puts)
	}
	if w.QueuedLen() != 0 {
		t.Fatalf("queued = %d after flush", w.QueuedLen())
	}
}

func TestWritebackStealCancelsWrite(t *testing.T) {
	store := dram.New(dram.DefaultParams(), 1)
	w := testWriteback(store, 100)
	key := kvstore.Key(0x5000)
	if _, err := w.Enqueue(0, key, page(0x42), true); err != nil {
		t.Fatal(err)
	}
	data, _, ok := w.Steal(0, key)
	if !ok {
		t.Fatal("steal failed")
	}
	if !bytes.Equal(data, page(0x42)) {
		t.Fatal("stolen data wrong")
	}
	// The write is cancelled: flushing now stores nothing.
	if err := w.Flush(0); err != nil {
		t.Fatal(err)
	}
	if store.Stats().Puts != 0 {
		t.Fatal("cancelled write still hit the store")
	}
	if _, _, ok := w.Steal(0, key); ok {
		t.Fatal("double steal succeeded")
	}
}

func TestWritebackReEvictionReplacesData(t *testing.T) {
	store := dram.New(dram.DefaultParams(), 1)
	w := testWriteback(store, 100)
	key := kvstore.Key(0x6000)
	if _, err := w.Enqueue(0, key, page(1), true); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Enqueue(0, key, page(2), true); err != nil {
		t.Fatal(err)
	}
	data, _, _ := w.Steal(0, key)
	if !bytes.Equal(data, page(2)) {
		t.Fatal("stale data after re-eviction")
	}
	if w.QueuedLen() != 0 {
		t.Fatalf("queued = %d", w.QueuedLen())
	}
}

func TestWritebackWaitForInflight(t *testing.T) {
	store := dram.New(dram.DefaultParams(), 1)
	w := testWriteback(store, 1) // flush every enqueue
	key := kvstore.Key(0x7000)
	if _, err := w.Enqueue(0, key, page(1), true); err != nil {
		t.Fatal(err)
	}
	done, ok := w.WaitFor(0, key)
	if !ok {
		t.Fatal("no in-flight record after flush")
	}
	if done <= 0 {
		t.Fatal("in-flight completion not in the future")
	}
	// After the write lands, gc clears it.
	if _, ok := w.WaitFor(done+time.Millisecond, key); ok {
		w.gc(done + time.Millisecond)
	}
	if _, ok := w.WaitFor(done+2*time.Millisecond, key); ok {
		t.Fatal("completed write still reported in flight")
	}
}

func TestWritebackDrain(t *testing.T) {
	store := dram.New(dram.DefaultParams(), 1)
	w := testWriteback(store, 100)
	for i := 0; i < 5; i++ {
		if _, err := w.Enqueue(0, kvstore.Key(i<<12), page(byte(i)), true); err != nil {
			t.Fatal(err)
		}
	}
	done, err := w.Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("drain cost nothing")
	}
	if store.Stats().Puts != 5 {
		t.Fatalf("puts = %d", store.Stats().Puts)
	}
	if w.QueuedLen() != 0 || len(w.inflight) != 0 {
		t.Fatal("drain left residue")
	}
}

func TestWritebackFlushEmptyNoop(t *testing.T) {
	store := dram.New(dram.DefaultParams(), 1)
	w := testWriteback(store, 4)
	if err := w.Flush(0); err != nil {
		t.Fatal(err)
	}
	if store.Stats().MultiPuts != 0 {
		t.Fatal("empty flush hit the store")
	}
}

func TestWritebackZeroMarkLifecycle(t *testing.T) {
	store := dram.New(dram.DefaultParams(), 1)
	w := testWriteback(store, 100)
	key := kvstore.Key(0x8000)

	// Marking a key queued for write-back cancels the pending write.
	if _, err := w.Enqueue(0, key, page(9), true); err != nil {
		t.Fatal(err)
	}
	w.NoteZero(key)
	if w.QueuedLen() != 0 {
		t.Fatalf("queued = %d after NoteZero", w.QueuedLen())
	}
	if !w.HasZero(key) {
		t.Fatal("zero mark missing")
	}
	if err := w.Flush(0); err != nil {
		t.Fatal(err)
	}
	if store.Stats().Puts != 0 {
		t.Fatal("zero-elided write hit the store")
	}

	// TakeZero consumes the mark exactly once.
	if !w.TakeZero(key) {
		t.Fatal("TakeZero missed the mark")
	}
	if w.TakeZero(key) || w.HasZero(key) {
		t.Fatal("zero mark survived TakeZero")
	}

	// A fresh non-zero eviction supersedes a standing mark.
	w.NoteZero(key)
	if _, err := w.Enqueue(0, key, page(7), true); err != nil {
		t.Fatal(err)
	}
	if w.HasZero(key) {
		t.Fatal("zero mark survived fresh enqueue")
	}
	data, _, ok := w.Steal(0, key)
	if !ok || !bytes.Equal(data, page(7)) {
		t.Fatal("queued data wrong after zero supersede")
	}

	// A mark noted again is taken again.
	w.NoteZero(key)
	if !w.TakeZero(key) || w.HasZero(key) {
		t.Fatal("second zero mark not taken")
	}

	st := w.Snapshot()
	if st.ZeroMarks != 3 {
		t.Fatalf("ZeroMarks = %d, want 3", st.ZeroMarks)
	}
	if st.ZeroBitmap != 0 {
		t.Fatalf("ZeroBitmap = %d, want 0", st.ZeroBitmap)
	}
}

func TestWritebackCoalesceCounterAndHistogram(t *testing.T) {
	store := dram.New(dram.DefaultParams(), 1)
	w := testWriteback(store, 100)
	key := kvstore.Key(0x9000)
	if _, err := w.Enqueue(0, key, page(1), true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Enqueue(0, key, page(byte(2+i)), true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Enqueue(0, kvstore.Key(0xa000), page(8), true); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Enqueue(0, kvstore.Key(0xb000), page(9), true); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(0); err != nil {
		t.Fatal(err)
	}

	st := w.Snapshot()
	if st.Coalesced != 3 {
		t.Fatalf("Coalesced = %d, want 3", st.Coalesced)
	}
	if st.Flushes != 2 || st.FlushedPages != 3 {
		t.Fatalf("Flushes = %d FlushedPages = %d, want 2/3", st.Flushes, st.FlushedPages)
	}
	if st.FlushSizes[2] != 1 || st.FlushSizes[1] != 1 {
		t.Fatalf("FlushSizes = %v, want {2:1, 1:1}", st.FlushSizes)
	}
	// The four same-key enqueues collapsed to one store write.
	if store.Stats().Puts != 3 {
		t.Fatalf("store puts = %d, want 3", store.Stats().Puts)
	}
}

func TestWritebackDiscardQueued(t *testing.T) {
	store := dram.New(dram.DefaultParams(), 1)
	w := testWriteback(store, 100)
	key := kvstore.Key(0xc000)
	if _, err := w.Enqueue(0, key, page(5), true); err != nil {
		t.Fatal(err)
	}
	if !w.DiscardQueued(key) {
		t.Fatal("DiscardQueued missed a queued write")
	}
	if w.DiscardQueued(key) {
		t.Fatal("double discard succeeded")
	}
	if w.QueuedLen() != 0 {
		t.Fatalf("queued = %d", w.QueuedLen())
	}
	if err := w.Flush(0); err != nil {
		t.Fatal(err)
	}
	if store.Stats().Puts != 0 {
		t.Fatal("discarded write hit the store")
	}
}

// scriptedStore completes each MultiPut after the next scripted delay, so a
// later flush can finish before an earlier one — as replica and cluster
// pools do, where completion depends on which members a batch lands on.
type scriptedStore struct {
	kvstore.Store
	delays []time.Duration
}

func (s *scriptedStore) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	if _, err := s.Store.MultiPut(now, keys, pages); err != nil {
		return now, err
	}
	d := s.delays[0]
	s.delays = s.delays[1:]
	return now + d, nil
}

// TestWritebackGCNonMonotoneCompletions holds the watermarked gc to the
// full sweep it replaced: after every Enqueue the in-flight table must be
// exactly the flushed keys whose completion time is still ahead, when
// completion times are not monotone across flushes.
func TestWritebackGCNonMonotoneCompletions(t *testing.T) {
	const us = time.Microsecond
	store := &scriptedStore{Store: dram.New(dram.DefaultParams(), 1)}
	w := testWriteback(store, 2) // flush every second enqueue
	model := map[kvstore.Key]time.Duration{}
	enqueue := func(now time.Duration, i int) {
		t.Helper()
		key := kvstore.Key(i << 12)
		flushing := w.QueuedLen() == 1 && !w.Queued(key)
		var batch []kvstore.Key
		if flushing {
			batch = append(batch, kvstore.Key(w.pages.recs[w.queue.Head].id), key)
		}
		if _, err := w.Enqueue(now, key, page(byte(i)), true); err != nil {
			t.Fatal(err)
		}
		// The full sweep, then the flush's records.
		for k, done := range model {
			if done <= now {
				delete(model, k)
			}
		}
		inflight := inflightOf(w)
		for _, k := range batch {
			model[k] = inflight[k]
		}
		if len(w.inflight) != len(model) {
			t.Fatalf("at %v: %d keys in flight, full sweep leaves %d", now, len(w.inflight), len(model))
		}
		for k, done := range model {
			if got, ok := inflight[k]; !ok || got != done {
				t.Fatalf("at %v: key %#x in flight until %v (present %v), full sweep says %v", now, uint64(k), got, ok, done)
			}
		}
	}

	// The second flush (at 10 µs, done at 50 µs) lands before the first (at
	// 0, done at 100 µs): the watermark has to follow it down.
	store.delays = []time.Duration{100 * us, 40 * us}
	enqueue(0, 0)
	enqueue(0, 1)
	enqueue(10*us, 2)
	enqueue(10*us, 3)
	if w.minDone != 50*us {
		t.Fatalf("watermark %v after an earlier-finishing flush, want 50µs", w.minDone)
	}
	enqueue(49*us, 4) // nothing due
	if len(w.inflight) != 4 {
		t.Fatalf("%d in flight at 49µs, want 4", len(w.inflight))
	}
	store.delays = []time.Duration{us}
	enqueue(50*us, 5) // retires keys 2 and 3, then flushes 4 and 5 until 51 µs
	if _, ok := inflightOf(w)[kvstore.Key(2<<12)]; ok || len(w.inflight) != 4 {
		t.Fatalf("at 50µs: %d in flight, key 2 present %v; want keys 0,1,4,5", len(w.inflight), ok)
	}

	// A long scripted run: delays jump around, keys recur (a re-flushed key
	// moves its completion time both ways), time advances unevenly.
	r := uint64(12345)
	next := func(n int) int {
		r = r*6364136223846793005 + 1442695040888963407
		return int(r>>33) % n
	}
	now := 50 * us
	for step := 0; step < 2000; step++ {
		store.delays = append(store.delays[:0], time.Duration(1+next(200))*us)
		now += time.Duration(next(60)) * us
		enqueue(now, next(24))
	}

	done, err := w.Drain(now)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.inflight) != 0 || w.minDone != 0 || done < now {
		t.Fatalf("drain left %d in flight, watermark %v, done %v", len(w.inflight), w.minDone, done)
	}
}

// BenchmarkWritebackEnqueueFlush is the write list's ledger row: one evicted
// page enqueued per op, a 32-page MultiPut flushed every 32nd, and the gc
// check that rides every enqueue. The keys sit in a registered region, as
// every key the monitor enqueues does, and every enqueue gives the engine a
// buffer of its own, taken from what the flushes have released — the frame
// loop of DESIGN.md §14. A first pass over the keys, untimed, fills the store,
// so the timed ops are all overwrites and allocate nothing.
func BenchmarkWritebackEnqueueFlush(b *testing.B) {
	store := dram.New(dram.DefaultParams(), 1)
	pages := newPageTable()
	pages.addRegion(0, 1024*PageSize, 1, 0)
	w := newWriteback(pages, store, 32, 1, nil)
	pool := make([][]byte, 0, 32)
	w.setRecycle(func(buf []byte) { pool = append(pool, buf) })
	now := time.Duration(0)
	for i := -1024; i < b.N; i++ {
		if i == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		key := kvstore.Key((i & 1023) << 12)
		var data []byte
		if n := len(pool); n > 0 {
			data, pool = pool[n-1], pool[:n-1]
		} else {
			data = page(1)
		}
		if _, err := w.Enqueue(now, key, data, true); err != nil {
			b.Fatal(err)
		}
		now += 500 * time.Nanosecond
	}
}
