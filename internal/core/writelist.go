package core

import (
	"math"
	"strconv"
	"time"

	"fluidmem/internal/ilist"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/trace"
	"fluidmem/internal/uffd"
)

// writeback implements the coalescing asynchronous write-back engine (§V-B
// plus the zero-page optimisation): evicted pages accumulate on a write
// list; a flusher pushes batches to the store with one amortised multi-write
// per flush. The fault handler may *steal* a page back from the list (or
// wait on one already in flight) to shortcut the remote round trips.
//
// Three redundancies are removed before any byte hits the wire:
//
//   - Coalescing: a re-eviction of a key still queued replaces the pending
//     data in place (last version wins, original queue position kept), so a
//     hot page flushes once per batch no matter how often it bounces.
//   - Zero elision: an all-zero victim is recorded in the zero bitmap
//     instead of being queued; a re-fault restores it with UFFDIO_ZEROPAGE,
//     no store traffic in either direction. A stale store copy may remain —
//     the bitmap overrides it until fresh non-zero data supersedes the mark.
//   - Clean drop (decided by the monitor, see evictOne): a victim whose
//     store copy is still current is dropped without touching the engine.
//
// The batching policy is global, whatever the fault pipeline's width: one
// write list in enqueue order, one flush threshold, so the MultiPut batches a
// store observes are bit-for-bit identical for any worker count. Every
// elision decision depends only on page contents and logical state, never on
// virtual time, so the batches stay identical with elision on too.
//
// The engine keeps no index of its own. A page's pending write, its zero
// mark and its in-flight completion live in the page's entry and record in
// the page table (pagetable.go), found by indexing the key's region; the
// write list is threaded through the records.
//
// Ownership: Enqueue takes ownership of the caller's data buffer. A buffer
// whose bytes are no longer needed — replaced by a coalescing re-eviction,
// cancelled by a zero mark or discard — goes to the recycle hook (if set) so
// the fault pipeline can reuse the frame. A flush hands the queued buffers
// over to the store's MultiPut and recycles what the store leaves in their
// place, never the buffers it queued; a failed flush keeps them queued.
// Steal transfers ownership back to the caller. Records and the flush
// keys/pages scratch are reused, so steady-state enqueue+flush allocates
// nothing.
type writeback struct {
	store     kvstore.Store
	batchSize int
	// tr receives flush/steal/wait events, a steal or wait attributed to
	// uffd.WorkerOf its page among workers; nil disables tracing.
	tr      *trace.Tracer
	workers int
	// recycle, when non-nil, receives buffers the engine is done with.
	recycle func([]byte)

	pages *pageTable
	// queue is the write list: the recQueued records, evicted pages not yet
	// submitted, in enqueue order, threaded through the table's queueLinks.
	queue ilist.List

	// keyScratch and pageScratch are the reusable flush buffers.
	keyScratch  []kvstore.Key
	pageScratch [][]byte

	// zeros counts the zero bitmap (entZero): keys whose latest evicted
	// contents were all zeroes and were therefore never written to the
	// store. Membership is authoritative over the store — re-faults consult
	// it first.
	zeros int

	// inflight lists the recInflight records: submitted writes, each with
	// its completion time. minDone is a lower bound on those times — the
	// watermark gc checks before it sweeps.
	inflight []uint32
	minDone  time.Duration

	flushes      uint64
	flushedPages uint64
	steals       uint64
	waits        uint64
	coalesced    uint64
	zeroMarks    uint64
	// flushSizes histograms MultiPut batch sizes (batch size -> count).
	flushSizes map[int]uint64
}

// WritebackStats is the engine's counter snapshot (operator/bench surface).
type WritebackStats struct {
	// Flushes is MultiPut round trips; FlushedPages is pages they carried.
	Flushes, FlushedPages uint64
	// Steals and Waits are fault-path interactions with pending writes.
	Steals, Waits uint64
	// Coalesced counts re-evictions absorbed into a queued entry.
	Coalesced uint64
	// ZeroMarks counts zero-bitmap insertions (elided store writes).
	ZeroMarks uint64
	// ZeroBitmap is the current bitmap population.
	ZeroBitmap int
	// FlushSizes maps MultiPut batch size to occurrence count.
	FlushSizes map[int]uint64
}

func newWriteback(pages *pageTable, store kvstore.Store, batchSize, workers int, tr *trace.Tracer) *writeback {
	if batchSize <= 0 {
		batchSize = 32
	}
	return &writeback{
		store:      store,
		batchSize:  batchSize,
		workers:    workers,
		tr:         tr,
		pages:      pages,
		flushSizes: make(map[int]uint64, 16),
	}
}

// setRecycle installs the frame-recycling hook (nil disables recycling).
func (w *writeback) setRecycle(fn func([]byte)) { w.recycle = fn }

// release hands a buffer the engine no longer needs to the recycle hook.
func (w *writeback) release(buf []byte) {
	if w.recycle != nil && buf != nil {
		w.recycle(buf)
	}
}

// pending resolves key's entry and, if a write of it is queued, its record.
func (w *writeback) pending(key kvstore.Key) (e *uint32, i uint32, ok bool) {
	e = w.pages.byKey(key, false)
	i = *e & entSlot
	return e, i, w.pages.recs[i].state&recQueued != 0
}

// dequeue takes the queued record i, which entry e points to, off the write
// list and returns its data.
func (w *writeback) dequeue(e *uint32, i uint32) []byte {
	w.queue.Remove(w.pages.queueLinks, i)
	r := &w.pages.recs[i]
	data := r.data
	r.data = nil
	r.state &^= recQueued
	w.pages.release(e, i)
	return data
}

// Enqueue adds an evicted page and flushes if the global batch threshold is
// reached. It returns the caller-visible completion time: enqueueing is off
// the critical path, so this is just now (flush I/O occupies the store's
// device asynchronously). Ownership of data transfers to the engine.
func (w *writeback) Enqueue(now time.Duration, key kvstore.Key, data []byte) (time.Duration, error) {
	w.gc(now)
	e := w.pages.byKey(key, true)
	// Fresh data supersedes any zero marker for this key: once the write
	// flushes, the store copy is current again.
	if *e&entZero != 0 {
		*e &^= entZero
		w.zeros--
	}
	i := w.pages.track(e, uint64(key))
	r := &w.pages.recs[i]
	if r.state&recQueued != 0 {
		// Re-eviction of a page whose previous write never flushed: replace
		// the data in place, keeping the original queue position. The
		// superseded buffer goes back to the frame pool.
		w.release(r.data)
		r.data = data
		w.coalesced++
		return now, nil
	}
	r.state |= recQueued
	r.data = data
	w.queue.PushBack(w.pages.queueLinks, i)
	if w.queue.Len >= w.batchSize {
		return now, w.Flush(now)
	}
	return now, nil
}

// Flush submits all queued writes, in enqueue order, as one multi-write. The
// store's device model accounts the transfer; faults only wait on it via
// WaitFor.
func (w *writeback) Flush(now time.Duration) error {
	if w.queue.Len == 0 {
		return nil
	}
	recs, links := w.pages.recs, w.pages.queueLinks
	keys := w.keyScratch[:0]
	pages := w.pageScratch[:0]
	for i := w.queue.Head; i != 0; i = links[i].Next {
		keys = append(keys, kvstore.Key(recs[i].id))
		pages = append(pages, recs[i].data)
	}
	w.keyScratch, w.pageScratch = keys, pages
	done, err := w.store.MultiPut(now, keys, pages)
	if err != nil {
		return err
	}
	if w.tr != nil {
		w.tr.Emit(trace.EvFlush, 0, 0, now, done-now, strconv.Itoa(len(keys)))
	}
	if len(w.inflight) == 0 || done < w.minDone {
		w.minDone = done
	}
	for i, k := w.queue.Head, 0; i != 0; k++ {
		r := &recs[i]
		if r.state&recInflight == 0 {
			w.inflight = append(w.inflight, i)
		}
		r.state = r.state&^recQueued | recInflight
		r.done = done
		// The queued frame may be the store's now (MultiPut hand-over); what
		// the store left in its slot is ours, and that goes to the frame pool.
		// The slot is cleared so the scratch pins no pooled buffer.
		r.data = nil
		w.release(pages[k])
		pages[k] = nil
		i, links[i] = links[i].Next, ilist.Link{}
	}
	w.queue = ilist.List{}
	w.flushes++
	w.flushedPages += uint64(len(keys))
	w.flushSizes[len(keys)]++
	return nil
}

// NoteZero records that key's latest evicted contents are all zeroes: any
// queued write for it is cancelled (its data is obsolete) and the key enters
// the zero bitmap, so the eviction costs no store traffic at all.
func (w *writeback) NoteZero(key kvstore.Key) {
	e := w.pages.byKey(key, true)
	if *e&entZero == 0 {
		*e |= entZero
		w.zeros++
	}
	if i := *e & entSlot; w.pages.recs[i].state&recQueued != 0 {
		w.release(w.dequeue(e, i))
	}
	w.zeroMarks++
}

// TakeZero consumes a zero-bitmap entry: true means the page's current
// contents are all zeroes and any store copy is stale — the fault must be
// resolved with UFFDIO_ZEROPAGE, not a store read. The mark is cleared
// because the page becomes resident again.
func (w *writeback) TakeZero(key kvstore.Key) bool {
	e := w.pages.byKey(key, false)
	if *e&entZero == 0 {
		return false
	}
	*e &^= entZero
	w.zeros--
	w.pages.settle(uint64(key), e)
	return true
}

// HasZero reports zero-bitmap membership without consuming the mark (used by
// prefetch to skip keys whose store copy is stale).
func (w *writeback) HasZero(key kvstore.Key) bool {
	return *w.pages.byKey(key, false)&entZero != 0
}

// DropZero discards a zero mark (page released entirely, e.g. Discard or VM
// teardown).
func (w *writeback) DropZero(key kvstore.Key) { w.TakeZero(key) }

// DiscardQueued cancels any pending (unflushed) write for key, returning
// whether one was queued. Used on page release so a dead page's bytes never
// hit the store.
func (w *writeback) DiscardQueued(key kvstore.Key) bool {
	e, i, ok := w.pending(key)
	if ok {
		w.release(w.dequeue(e, i))
	}
	return ok
}

// Snapshot returns the engine's counters. FlushSizes is a copy.
func (w *writeback) Snapshot() WritebackStats {
	sizes := make(map[int]uint64, len(w.flushSizes))
	for k, v := range w.flushSizes {
		sizes[k] = v
	}
	return WritebackStats{
		Flushes:      w.flushes,
		FlushedPages: w.flushedPages,
		Steals:       w.steals,
		Waits:        w.waits,
		Coalesced:    w.coalesced,
		ZeroMarks:    w.zeroMarks,
		ZeroBitmap:   w.zeros,
		FlushSizes:   sizes,
	}
}

// Steal resolves a fault from the write list: if key is still queued, its
// data is returned and the write is cancelled (the page is going right back
// into the VM, so nothing needs storing). ok=false if the key is not queued.
// Ownership of the returned buffer transfers to the caller.
func (w *writeback) Steal(now time.Duration, key kvstore.Key) ([]byte, bool) {
	w.gc(now)
	e, i, ok := w.pending(key)
	if !ok {
		return nil, false
	}
	w.steals++
	w.tr.Emit(trace.EvSteal, uffd.WorkerOf(key.Page(), w.workers), key.Page(), now, 0, "")
	return w.dequeue(e, i), true
}

// WaitFor reports when an in-flight write of key completes; ok=false if no
// write is in flight. The paper: "If a write of a page is in-flight when the
// fault handler gets another fault for the same address, there is no other
// choice than to wait for the write to complete."
func (w *writeback) WaitFor(now time.Duration, key kvstore.Key) (time.Duration, bool) {
	r := &w.pages.recs[*w.pages.byKey(key, false)&entSlot]
	if r.state&recInflight == 0 {
		return now, false
	}
	w.waits++
	done := r.done
	if done < now {
		done = now
	}
	w.tr.Emit(trace.EvWait, uffd.WorkerOf(key.Page(), w.workers), key.Page(), now, done-now, "")
	return done, true
}

// Queued reports whether key is on the write list awaiting flush.
func (w *writeback) Queued(key kvstore.Key) bool {
	_, _, ok := w.pending(key)
	return ok
}

// QueuedLen reports pages awaiting flush.
func (w *writeback) QueuedLen() int { return w.queue.Len }

// Drain flushes everything and reports when the store is quiescent.
func (w *writeback) Drain(now time.Duration) (time.Duration, error) {
	if err := w.Flush(now); err != nil {
		return now, err
	}
	latest := now
	for _, i := range w.inflight {
		if done := w.pages.recs[i].done; done > latest {
			latest = done
		}
		w.retire(i)
	}
	w.inflight = w.inflight[:0]
	w.minDone = 0
	return latest, nil
}

// retire ends record i's in-flight write.
func (w *writeback) retire(i uint32) {
	r := &w.pages.recs[i]
	r.state &^= recInflight
	w.pages.release(w.pages.byKey(kvstore.Key(r.id), false), i)
}

// gc retires inflight records whose writes completed by now. It runs on
// every Enqueue and Steal, so it sweeps only once now has reached the
// watermark — a minimum, recomputed over the survivors, because completion
// times are not monotone across flushes (replicated and cluster stores).
func (w *writeback) gc(now time.Duration) {
	if len(w.inflight) == 0 || now < w.minDone {
		return
	}
	least := time.Duration(math.MaxInt64)
	kept := w.inflight[:0]
	for _, i := range w.inflight {
		done := w.pages.recs[i].done
		if done <= now {
			w.retire(i)
			continue
		}
		if done < least {
			least = done
		}
		kept = append(kept, i)
	}
	w.inflight = kept
	w.minDone = least
}
