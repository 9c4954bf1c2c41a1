package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/storetest"
	"fluidmem/internal/uffd"
)

// mapWriteback is the reference model of the write-back engine: the
// map-backed implementation the page-table records replaced (per-shard
// queues keyed by store key, flushes gathered and sorted by enqueue stamp, an
// in-flight map swept by gc), kept here so the engine can be held to it
// MultiPut for MultiPut. A torn-down region's writes still in flight are
// orphans: no key finds them any more, but gc and Drain still see them.
type mapWriteback struct {
	store     kvstore.Store
	batchSize int
	shards    []map[kvstore.Key]*mapPending
	queued    int
	nextSeq   uint64
	zero      map[kvstore.Key]bool
	inflight  map[kvstore.Key]time.Duration
	orphans   []time.Duration
	minDone   time.Duration
	stats     WritebackStats
}

type mapPending struct {
	key  kvstore.Key
	data []byte
	seq  uint64
}

func newMapWriteback(store kvstore.Store, batchSize, shards int) *mapWriteback {
	w := &mapWriteback{
		store:     store,
		batchSize: batchSize,
		zero:      map[kvstore.Key]bool{},
		inflight:  map[kvstore.Key]time.Duration{},
		stats:     WritebackStats{FlushSizes: map[int]uint64{}},
	}
	for i := 0; i < shards; i++ {
		w.shards = append(w.shards, map[kvstore.Key]*mapPending{})
	}
	return w
}

func (w *mapWriteback) shardOf(key kvstore.Key) map[kvstore.Key]*mapPending {
	return w.shards[uffd.WorkerOf(key.Page(), len(w.shards))]
}

func (w *mapWriteback) Enqueue(now time.Duration, key kvstore.Key, data []byte) error {
	w.gc(now)
	delete(w.zero, key)
	shard := w.shardOf(key)
	if old, ok := shard[key]; ok {
		old.data = data
		w.stats.Coalesced++
		return nil
	}
	w.nextSeq++
	shard[key] = &mapPending{key: key, data: data, seq: w.nextSeq}
	w.queued++
	if w.queued >= w.batchSize {
		return w.Flush(now)
	}
	return nil
}

func (w *mapWriteback) Flush(now time.Duration) error {
	if w.queued == 0 {
		return nil
	}
	var batch []*mapPending
	for _, shard := range w.shards {
		for _, pw := range shard {
			batch = append(batch, pw)
		}
	}
	for i := 1; i < len(batch); i++ {
		for j := i; j > 0 && batch[j-1].seq > batch[j].seq; j-- {
			batch[j-1], batch[j] = batch[j], batch[j-1]
		}
	}
	var keys []kvstore.Key
	var pages [][]byte
	for _, pw := range batch {
		keys = append(keys, pw.key)
		pages = append(pages, pw.data)
	}
	done, err := w.store.MultiPut(now, keys, pages)
	if err != nil {
		return err
	}
	if len(w.inflight)+len(w.orphans) == 0 || done < w.minDone {
		w.minDone = done
	}
	for _, pw := range batch {
		delete(w.shardOf(pw.key), pw.key)
		w.inflight[pw.key] = done
	}
	w.queued = 0
	w.stats.Flushes++
	w.stats.FlushedPages += uint64(len(batch))
	w.stats.FlushSizes[len(batch)]++
	return nil
}

func (w *mapWriteback) cancel(key kvstore.Key) ([]byte, bool) {
	shard := w.shardOf(key)
	pw, ok := shard[key]
	if !ok {
		return nil, false
	}
	delete(shard, key)
	w.queued--
	return pw.data, true
}

func (w *mapWriteback) NoteZero(key kvstore.Key) {
	w.cancel(key)
	w.zero[key] = true
	w.stats.ZeroMarks++
}

func (w *mapWriteback) TakeZero(key kvstore.Key) bool {
	had := w.zero[key]
	delete(w.zero, key)
	return had
}

func (w *mapWriteback) DiscardQueued(key kvstore.Key) bool {
	_, ok := w.cancel(key)
	return ok
}

func (w *mapWriteback) Steal(now time.Duration, key kvstore.Key) ([]byte, bool) {
	w.gc(now)
	data, ok := w.cancel(key)
	if ok {
		w.stats.Steals++
	}
	return data, ok
}

func (w *mapWriteback) WaitFor(now time.Duration, key kvstore.Key) (time.Duration, bool) {
	done, ok := w.inflight[key]
	if !ok {
		return now, false
	}
	w.stats.Waits++
	return max(done, now), true
}

func (w *mapWriteback) Drain(now time.Duration) (time.Duration, error) {
	if err := w.Flush(now); err != nil {
		return now, err
	}
	latest := now
	for _, done := range w.inflight {
		latest = max(latest, done)
	}
	for _, done := range w.orphans {
		latest = max(latest, done)
	}
	w.inflight = map[kvstore.Key]time.Duration{}
	w.orphans = nil
	w.minDone = 0
	return latest, nil
}

// orphan tears down the one region every key lives in: queued writes and
// zero marks must already be forgotten; writes in flight become orphans.
func (w *mapWriteback) orphan() {
	if w.queued != 0 || len(w.zero) != 0 {
		panic("orphan: the region still has queued writes or zero marks")
	}
	for _, done := range w.inflight {
		w.orphans = append(w.orphans, done)
	}
	w.inflight = map[kvstore.Key]time.Duration{}
}

func (w *mapWriteback) gc(now time.Duration) {
	if len(w.inflight)+len(w.orphans) == 0 || now < w.minDone {
		return
	}
	least := time.Duration(math.MaxInt64)
	for key, done := range w.inflight {
		if done <= now {
			delete(w.inflight, key)
		} else if done < least {
			least = done
		}
	}
	kept := w.orphans[:0]
	for _, done := range w.orphans {
		if done > now {
			least = min(least, done)
			kept = append(kept, done)
		}
	}
	w.orphans = kept
	w.minDone = least
}

func (w *mapWriteback) Snapshot() WritebackStats {
	st := w.stats
	st.ZeroBitmap = len(w.zero)
	return st
}

// recordingStore logs every MultiPut it is handed and completes each after a
// delay drawn from its own stream, so completion times are not monotone
// across flushes.
type recordingStore struct {
	kvstore.Store
	delays *clock.Rand
	puts   []string
}

func (s *recordingStore) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	tags := make([]byte, len(pages))
	for i, p := range pages {
		tags[i] = p[0]
	}
	s.puts = append(s.puts, fmt.Sprintf("%v %v %v", now, keys, tags))
	if _, err := s.Store.MultiPut(now, keys, pages); err != nil {
		return now, err
	}
	return now + time.Duration(1+s.delays.Intn(300))*time.Microsecond, nil
}

// Operations wbPair.apply understands.
const (
	wbEnqueue = iota
	wbNoteZero
	wbTakeZero
	wbSteal
	wbFlush
	wbDiscard
	wbWaitFor
	wbDrain
	wbOps
)

// wbPair drives the engine and the reference model with the same operations
// and fails on the first difference in an answer, in the MultiPut sequence
// (time, keys, page tags), in Snapshot — which carries waits — or in what is
// queued and zero-marked.
//
// The engine's side runs behind storetest's aliasing net, with a recycle hook
// that overwrites whatever the engine releases, as the frame pool's next user
// would: an engine that released a frame the store had kept would corrupt the
// store's copy, which the net's read-back at every Drain catches. The model
// writes to a bare store, so equal MultiPut sequences also say the net
// changes nothing.
type wbPair struct {
	t        *testing.T
	w        *writeback
	model    *mapWriteback
	got, ref *recordingStore
	net      *storetest.Poisoned
}

func newWBPair(t *testing.T, pages *pageTable, batchSize, shards int, seed uint64) *wbPair {
	p := &wbPair{
		t:   t,
		net: storetest.Poison(t, dram.New(dram.DefaultParams(), 1)),
		ref: &recordingStore{Store: dram.New(dram.DefaultParams(), 1), delays: clock.NewRand(seed)},
	}
	p.got = &recordingStore{Store: p.net, delays: clock.NewRand(seed)}
	p.w = newWriteback(pages, p.got, batchSize, shards, nil)
	p.w.setRecycle(storetest.Scribble)
	p.model = newMapWriteback(p.ref, batchSize, shards)
	return p
}

// apply runs one operation on both sides and returns the engine's answer:
// the stolen page for wbSteal, and ok for the operations that report one.
func (p *wbPair) apply(op int, now time.Duration, key kvstore.Key, tag byte) (data []byte, ok bool) {
	t := p.t
	t.Helper()
	tagged := func() []byte {
		buf := make([]byte, kvstore.PageSize)
		buf[0] = tag
		return buf
	}
	var want bool
	switch op {
	case wbEnqueue:
		_, err := p.w.Enqueue(now, key, tagged(), true)
		if werr := p.model.Enqueue(now, key, tagged()); err != nil || werr != nil {
			t.Fatalf("Enqueue: %v, model %v", err, werr)
		}
	case wbNoteZero:
		p.w.NoteZero(key)
		p.model.NoteZero(key)
	case wbTakeZero:
		ok, want = p.w.TakeZero(key), p.model.TakeZero(key)
	case wbSteal:
		var wdata []byte
		data, _, ok = p.w.Steal(now, key)
		wdata, want = p.model.Steal(now, key)
		if ok && want && data[0] != wdata[0] {
			t.Fatalf("Steal(%v) returned tag %d, model %d", key, data[0], wdata[0])
		}
	case wbFlush:
		err := p.w.Flush(now)
		if werr := p.model.Flush(now); err != nil || werr != nil {
			t.Fatalf("Flush: %v, model %v", err, werr)
		}
	case wbDiscard:
		ok, want = p.w.DiscardQueued(key), p.model.DiscardQueued(key)
	case wbWaitFor:
		var done, wdone time.Duration
		done, ok = p.w.WaitFor(now, key)
		wdone, want = p.model.WaitFor(now, key)
		if done != wdone {
			t.Fatalf("WaitFor(%v, %v) = %v, model %v", now, key, done, wdone)
		}
	case wbDrain:
		done, err := p.w.Drain(now)
		wdone, werr := p.model.Drain(now)
		if err != nil || werr != nil || done != wdone {
			t.Fatalf("Drain(%v) = (%v, %v), model (%v, %v)", now, done, err, wdone, werr)
		}
		p.net.Verify(now)
	}
	if ok != want {
		t.Fatalf("op %d at %v on %v answered %v, model %v", op, now, key, ok, want)
	}
	// Every earlier MultiPut was compared when it happened.
	if n := len(p.got.puts); n != len(p.ref.puts) || n > 0 && p.got.puts[n-1] != p.ref.puts[n-1] {
		t.Fatalf("op %d at %v: MultiPut sequence diverged at its end:\n got   %d %v\n model %d %v", op, now,
			n, p.got.puts[max(n-1, 0):], len(p.ref.puts), p.ref.puts[max(len(p.ref.puts)-1, 0):])
	}
	if got, want := p.w.Snapshot(), p.model.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("op %d at %v: Snapshot %+v, model %+v", op, now, got, want)
	}
	_, queued := p.model.shardOf(key)[key]
	if p.w.Queued(key) != queued || p.w.QueuedLen() != p.model.queued || p.w.HasZero(key) != p.model.zero[key] {
		t.Fatalf("op %d at %v on %v: queued %v of %d, zero %v; model %v of %d, %v", op, now, key,
			p.w.Queued(key), p.w.QueuedLen(), p.w.HasZero(key), queued, p.model.queued, p.model.zero[key])
	}
	return data, ok
}

// TestWritebackMatchesMapModel drives random operations, at times that jump
// both ways, through the engine and the map-backed reference, over a page
// table whose one region is torn down and registered again mid-stream: its
// queued writes and zero marks are forgotten first, as Monitor.forget does,
// and its writes in flight outlive it, named by no key.
func TestWritebackMatchesMapModel(t *testing.T) {
	const (
		base     = 0x7f00_0000_0000
		keySpace = 48
		part     = kvstore.PartitionID(5)
	)
	for _, shards := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("region/shards=%d", shards), func(t *testing.T) {
			pages := newPageTable()
			pages.addRegion(base, keySpace*PageSize, 1, part)
			p := newWBPair(t, pages, 8, shards, 42)
			pick := clock.NewRand(uint64(shards) + keySpace)
			now := time.Duration(0)
			for step := 0; step < 30000; step++ {
				// Mostly forward, sometimes back: workers' clocks are not
				// ordered with respect to each other.
				now += time.Duration(pick.Intn(120)-20) * time.Microsecond
				if now < 0 {
					now = 0
				}
				key := kvstore.MakeKey(base+uint64(pick.Intn(keySpace))*PageSize, part)
				op := pick.Intn(wbOps + 6)
				switch {
				case op >= wbOps+1:
					op = wbEnqueue
				case op == wbOps:
					for i := uint64(0); i < keySpace; i++ {
						k := kvstore.MakeKey(base+i*PageSize, part)
						if p.w.DiscardQueued(k) != p.model.DiscardQueued(k) || p.w.TakeZero(k) != p.model.TakeZero(k) {
							t.Fatalf("step %d: forgetting %v disagreed with the model", step, k)
						}
					}
					pages.dropRegion(base)
					p.model.orphan()
					if step%2 == 0 {
						// Nothing finds the orphaned writes before the range
						// comes back.
						p.apply(wbWaitFor, now, key, 0)
						p.apply(wbSteal, now, key, 0)
					}
					pages.addRegion(base, keySpace*PageSize, 1, part)
					continue
				case op == wbDrain && pick.Intn(8) != 0:
					op = wbSteal
				}
				if op != wbEnqueue && op != wbNoteZero && pick.Intn(16) == 0 {
					// A key of another partition is not the region's page.
					key = kvstore.MakeKey(key.Page(), part+1)
				}
				p.apply(op, now, key, byte(step))
			}
			p.apply(wbDrain, now, 0, 0)
			if n := len(pages.recs) - 1; n > keySpace*2 || n != pages.free.Len {
				t.Fatalf("drained record slab holds %d records for %d keys, %d of them free", n, keySpace, pages.free.Len)
			}
		})
	}
}
