package core

import (
	"math"
	"strconv"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/trace"
)

// pendingWrite is one evicted page awaiting its store write.
type pendingWrite struct {
	key  kvstore.Key
	addr uint64
	data []byte
	// seq is the global enqueue stamp; flushes gather across shards in seq
	// order so batches are identical to the single-list engine's.
	seq uint64
}

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
// For the multi-worker pipeline the list is partitioned into per-shard
// queues (one lock domain per worker in a real monitor, so enqueues and
// steals from different workers never contend). The batching policy stays
// global: entries carry a global enqueue stamp, the flush threshold counts
// queued pages across all shards, and Flush gathers them in stamp order —
// so the MultiPut batches a store observes are bit-for-bit identical for
// any shard count. Every elision decision depends only on page contents and
// logical state, never on virtual time, so the batches stay identical for
// any worker count with elision on too.
//
// Ownership: Enqueue takes ownership of the caller's data buffer. When a
// buffer's bytes are no longer needed — replaced by a coalescing
// re-eviction, cancelled by a zero mark or discard, or safely copied by the
// store's MultiPut — the engine hands it to the recycle hook (if set) so
// the fault pipeline can reuse the frame. Steal transfers ownership back to
// the caller. pendingWrite structs and the flush batch/keys/pages scratch
// are pooled, so steady-state enqueue+flush allocates nothing.
type writeback struct {
	store     kvstore.Store
	batchSize int
	// tr receives flush/steal/wait events; nil disables tracing.
	tr *trace.Tracer
	// recycle, when non-nil, receives buffers the engine is done with.
	recycle func([]byte)

	// shards holds the per-worker queues of evicted pages not yet submitted.
	shards  []map[kvstore.Key]*pendingWrite
	idx     shardIndexer
	queued  int // total across shards
	nextSeq uint64

	// freePW pools retired pendingWrite structs; batchScratch, keyScratch
	// and pageScratch are the reusable flush buffers.
	freePW       []*pendingWrite
	batchScratch []*pendingWrite
	keyScratch   []kvstore.Key
	pageScratch  [][]byte

	// zero is the zero bitmap: keys whose latest evicted contents were all
	// zeroes and were therefore never written to the store. Membership is
	// authoritative over the store — re-faults consult it first.
	zero map[kvstore.Key]bool

	// inflight maps keys of submitted writes to their completion time. A
	// flush is one store-level MultiPut regardless of which shards fed it,
	// so completion tracking stays global. minDone is a lower bound on the
	// completion times in it — the watermark gc checks before it sweeps.
	inflight map[kvstore.Key]time.Duration
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

func newWriteback(store kvstore.Store, batchSize int) *writeback {
	return newShardedWriteback(store, batchSize, 1, nil)
}

func newShardedWriteback(store kvstore.Store, batchSize, shards int, tr *trace.Tracer) *writeback {
	if batchSize <= 0 {
		batchSize = 32
	}
	if shards < 1 {
		shards = 1
	}
	// Queues hold at most ~batchSize entries between flushes, the inflight
	// table at most one flush's worth plus stragglers: pre-sizing both keeps
	// map growth off the steady-state fault path.
	w := &writeback{
		store:      store,
		batchSize:  batchSize,
		idx:        newShardIndexer(shards),
		tr:         tr,
		zero:       make(map[kvstore.Key]bool, batchSize),
		inflight:   make(map[kvstore.Key]time.Duration, 2*batchSize),
		flushSizes: make(map[int]uint64, 16),
	}
	for i := 0; i < shards; i++ {
		w.shards = append(w.shards, make(map[kvstore.Key]*pendingWrite, batchSize))
	}
	return w
}

// setRecycle installs the frame-recycling hook (nil disables recycling).
func (w *writeback) setRecycle(fn func([]byte)) { w.recycle = fn }

// release hands a buffer the engine no longer needs to the recycle hook.
func (w *writeback) release(buf []byte) {
	if w.recycle != nil && buf != nil {
		w.recycle(buf)
	}
}

// getPW pops a pooled pendingWrite or allocates one.
func (w *writeback) getPW() *pendingWrite {
	if n := len(w.freePW); n > 0 {
		pw := w.freePW[n-1]
		w.freePW = w.freePW[:n-1]
		return pw
	}
	return &pendingWrite{}
}

// putPW retires a pendingWrite struct (its data must already be handed off).
func (w *writeback) putPW(pw *pendingWrite) {
	*pw = pendingWrite{}
	w.freePW = append(w.freePW, pw)
}

// shardIndex maps a key to its queue's shard (the same formula as the
// monitor's workerOf, so a key's queue and its fault worker coincide).
func (w *writeback) shardIndex(key kvstore.Key) int {
	return w.idx.index(key.Page())
}

// shardOf maps a key to its queue.
func (w *writeback) shardOf(key kvstore.Key) map[kvstore.Key]*pendingWrite {
	return w.shards[w.shardIndex(key)]
}

// Enqueue adds an evicted page and flushes if the global batch threshold is
// reached. It returns the caller-visible completion time: enqueueing is off
// the critical path, so this is just now (flush I/O occupies the store's
// device asynchronously). Ownership of data transfers to the engine.
func (w *writeback) Enqueue(now time.Duration, key kvstore.Key, addr uint64, data []byte) (time.Duration, error) {
	w.gc(now)
	// Fresh data supersedes any zero marker for this key: once the write
	// flushes, the store copy is current again.
	delete(w.zero, key)
	shard := w.shardOf(key)
	if old, ok := shard[key]; ok {
		// Re-eviction of a page whose previous write never flushed: replace
		// the data in place, keeping the original queue position. The
		// superseded buffer goes back to the frame pool.
		w.release(old.data)
		old.data = data
		w.coalesced++
		return now, nil
	}
	w.nextSeq++
	pw := w.getPW()
	pw.key, pw.addr, pw.data, pw.seq = key, addr, data, w.nextSeq
	shard[key] = pw
	w.queued++
	if w.queued >= w.batchSize {
		return now, w.Flush(now)
	}
	return now, nil
}

// sortPendingBySeq orders a gathered batch by global enqueue stamp.
// Insertion sort: batches are small (≤ a few × batchSize) and this avoids
// the sort package's interface boxing on the hot flush path.
func sortPendingBySeq(batch []*pendingWrite) {
	for i := 1; i < len(batch); i++ {
		pw := batch[i]
		j := i - 1
		for j >= 0 && batch[j].seq > pw.seq {
			batch[j+1] = batch[j]
			j--
		}
		batch[j+1] = pw
	}
}

// Flush submits all queued writes, across every shard in global enqueue
// order, as one multi-write. The store's device model accounts the
// transfer; faults only wait on it via WaitFor.
func (w *writeback) Flush(now time.Duration) error {
	if w.queued == 0 {
		return nil
	}
	batch := w.batchScratch[:0]
	for _, shard := range w.shards {
		for _, pw := range shard {
			batch = append(batch, pw)
		}
	}
	w.batchScratch = batch
	sortPendingBySeq(batch)
	keys := w.keyScratch[:0]
	pages := w.pageScratch[:0]
	for _, pw := range batch {
		keys = append(keys, pw.key)
		pages = append(pages, pw.data)
	}
	w.keyScratch, w.pageScratch = keys, pages
	done, err := w.store.MultiPut(now, keys, pages)
	if err != nil {
		return err
	}
	if w.tr != nil {
		w.tr.Emit(trace.EvFlush, 0, 0, now, done-now, strconv.Itoa(len(batch)))
	}
	if len(w.inflight) == 0 || done < w.minDone {
		w.minDone = done
	}
	for _, pw := range batch {
		delete(w.shardOf(pw.key), pw.key)
		w.inflight[pw.key] = done
		// MultiPut copied the bytes (store ownership contract), so the
		// frames can return to the fault pipeline's pool.
		w.release(pw.data)
		w.putPW(pw)
	}
	w.queued = 0
	w.flushes++
	w.flushedPages += uint64(len(batch))
	w.flushSizes[len(batch)]++
	// Drop references so pooled buffers aren't pinned by the scratch.
	clearPending(w.batchScratch)
	clearPages(w.pageScratch)
	return nil
}

func clearPending(s []*pendingWrite) {
	for i := range s {
		s[i] = nil
	}
}

func clearPages(s [][]byte) {
	for i := range s {
		s[i] = nil
	}
}

// NoteZero records that key's latest evicted contents are all zeroes: any
// queued write for it is cancelled (its data is obsolete) and the key enters
// the zero bitmap, so the eviction costs no store traffic at all.
func (w *writeback) NoteZero(key kvstore.Key) {
	if shard := w.shardOf(key); shard[key] != nil {
		pw := shard[key]
		delete(shard, key)
		w.queued--
		w.release(pw.data)
		w.putPW(pw)
	}
	w.zero[key] = true
	w.zeroMarks++
}

// TakeZero consumes a zero-bitmap entry: true means the page's current
// contents are all zeroes and any store copy is stale — the fault must be
// resolved with UFFDIO_ZEROPAGE, not a store read. The mark is cleared
// because the page becomes resident again.
func (w *writeback) TakeZero(key kvstore.Key) bool {
	if !w.zero[key] {
		return false
	}
	delete(w.zero, key)
	return true
}

// HasZero reports zero-bitmap membership without consuming the mark (used by
// prefetch to skip keys whose store copy is stale).
func (w *writeback) HasZero(key kvstore.Key) bool { return w.zero[key] }

// DropZero discards a zero mark (page released entirely, e.g. Discard or VM
// teardown).
func (w *writeback) DropZero(key kvstore.Key) { delete(w.zero, key) }

// DiscardQueued cancels any pending (unflushed) write for key, returning
// whether one was queued. Used on page release so a dead page's bytes never
// hit the store.
func (w *writeback) DiscardQueued(key kvstore.Key) bool {
	shard := w.shardOf(key)
	pw := shard[key]
	if pw == nil {
		return false
	}
	delete(shard, key)
	w.queued--
	w.release(pw.data)
	w.putPW(pw)
	return true
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
		ZeroBitmap:   len(w.zero),
		FlushSizes:   sizes,
	}
}

// Steal resolves a fault from the write list: if key is still queued, its
// data is returned and the write is cancelled (the page is going right back
// into the VM, so nothing needs storing). ok=false if the key is not queued.
// Ownership of the returned buffer transfers to the caller.
func (w *writeback) Steal(now time.Duration, key kvstore.Key) ([]byte, bool) {
	w.gc(now)
	shard := w.shardOf(key)
	pw, ok := shard[key]
	if !ok {
		return nil, false
	}
	delete(shard, key)
	w.queued--
	w.steals++
	w.tr.Emit(trace.EvSteal, w.shardIndex(key), key.Page(), now, 0, "")
	data := pw.data
	pw.data = nil
	w.putPW(pw)
	return data, true
}

// WaitFor reports when an in-flight write of key completes; ok=false if no
// write is in flight. The paper: "If a write of a page is in-flight when the
// fault handler gets another fault for the same address, there is no other
// choice than to wait for the write to complete."
func (w *writeback) WaitFor(now time.Duration, key kvstore.Key) (time.Duration, bool) {
	done, ok := w.inflight[key]
	if !ok {
		return now, false
	}
	w.waits++
	if done < now {
		done = now
	}
	w.tr.Emit(trace.EvWait, w.shardIndex(key), key.Page(), now, done-now, "")
	return done, true
}

// Queued reports whether key is on the write list awaiting flush.
func (w *writeback) Queued(key kvstore.Key) bool {
	_, ok := w.shardOf(key)[key]
	return ok
}

// QueuedLen reports pages awaiting flush across all shards.
func (w *writeback) QueuedLen() int { return w.queued }

// Drain flushes everything and reports when the store is quiescent.
func (w *writeback) Drain(now time.Duration) (time.Duration, error) {
	if err := w.Flush(now); err != nil {
		return now, err
	}
	latest := now
	for _, done := range w.inflight {
		if done > latest {
			latest = done
		}
	}
	w.inflight = make(map[kvstore.Key]time.Duration, 2*w.batchSize)
	w.minDone = 0
	return latest, nil
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
	for key, done := range w.inflight {
		if done <= now {
			delete(w.inflight, key)
		} else if done < least {
			least = done
		}
	}
	w.minDone = least
}
