package core

import (
	"errors"
	"testing"
	"time"

	"fluidmem/internal/kvstore"
)

// FuzzWriteCoalesce model-checks the coalescing write-back engine against a
// flat model: an arbitrary interleaving of enqueue / coalesce / zero-mark /
// steal / discard / flush / drain ops over a small key space must leave the
// engine's queue, zero bitmap, and the backing store in exactly the state
// the flat model predicts. The first input byte picks the shard count, so
// the fuzzer also re-proves that sharding never changes what the store
// observes. Every operation also runs on the map-backed reference engine
// (wbPair, writelist_model_test.go): MultiPut sequence, Snapshot and waits
// must be identical. The keys are the pages of one registered region; the
// first byte also seeds the store's completion delays.
func FuzzWriteCoalesce(f *testing.F) {
	f.Add([]byte{0})
	// enqueue k0, coalesce k0, flush, steal-miss k0.
	f.Add([]byte{1, 0x00, 0, 0x00, 0, 0x04, 0, 0x03, 0})
	// zero-mark a queued key, take it, re-enqueue, drain.
	f.Add([]byte{2, 0x00, 1, 0x01, 1, 0x02, 1, 0x00, 1, 0x07, 0})
	// fill past the batch threshold to force an auto-flush, then discard.
	f.Add([]byte{3, 0x00, 0, 0x00, 1, 0x00, 2, 0x00, 3, 0x00, 4, 0x05, 4})
	// flush, wait on the in-flight key, re-enqueue it, steal it back.
	f.Add([]byte{0, 0x00, 5, 0x04, 0, 0x06, 5, 0x00, 5, 0x03, 5})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		const batchSize = 4
		const keySpace = 8
		shards := int(raw[0]%4) + 1
		pages := newPageTable()
		pages.addRegion(0, keySpace*kvstore.PageSize, 1, 1)
		pair := newWBPair(t, pages, batchSize, shards, uint64(raw[0]))
		w, store := pair.w, pair.got

		// Flat model: pending data (tag per key), zero marks, and the tag
		// the store must durably hold for each flushed key.
		pending := make(map[kvstore.Key]byte)
		zero := make(map[kvstore.Key]bool)
		durable := make(map[kvstore.Key]byte)
		modelFlush := func() {
			for k, tag := range pending {
				durable[k] = tag
			}
			for k := range pending {
				delete(pending, k)
			}
		}

		keyOf := func(arg byte) kvstore.Key {
			return kvstore.MakeKey(uint64(arg%keySpace)*kvstore.PageSize, 1)
		}
		now := time.Duration(0)
		ops := raw[1:]
		for step := 0; step+1 < len(ops); step += 2 {
			op, arg := ops[step], ops[step+1]
			key := keyOf(arg)
			now += time.Microsecond
			switch op % 8 {
			case 0: // enqueue (fresh or coalescing)
				tag := byte(step%250) + 1
				pair.apply(wbEnqueue, now, key, tag)
				delete(zero, key)
				if _, queued := pending[key]; queued {
					pending[key] = tag // coalesced in place
				} else {
					pending[key] = tag
					if len(pending) >= batchSize {
						modelFlush()
					}
				}
			case 1: // zero-mark (cancels any queued write)
				pair.apply(wbNoteZero, now, key, 0)
				delete(pending, key)
				zero[key] = true
			case 2: // take the zero mark
				if _, got := pair.apply(wbTakeZero, now, key, 0); got != zero[key] {
					t.Fatalf("step %d: TakeZero = %v, model %v", step, got, zero[key])
				}
				delete(zero, key)
			case 3: // steal
				data, ok := pair.apply(wbSteal, now, key, 0)
				tag, want := pending[key]
				if ok != want {
					t.Fatalf("step %d: Steal ok = %v, model %v", step, ok, want)
				}
				if ok && data[0] != tag {
					t.Fatalf("step %d: stolen tag %d, model %d", step, data[0], tag)
				}
				delete(pending, key)
			case 4: // explicit flush
				pair.apply(wbFlush, now, key, 0)
				modelFlush()
			case 5: // discard a queued write
				_, want := pending[key]
				if _, got := pair.apply(wbDiscard, now, key, 0); got != want {
					t.Fatalf("step %d: DiscardQueued = %v, model %v", step, got, want)
				}
				delete(pending, key)
			case 6: // pure queries, and a wait on whatever is in flight
				pair.apply(wbWaitFor, now, key, 0)
				if got, want := w.HasZero(key), zero[key]; got != want {
					t.Fatalf("step %d: HasZero = %v, model %v", step, got, want)
				}
				if _, want := pending[key]; w.Queued(key) != want {
					t.Fatalf("step %d: Queued = %v, model %v", step, w.Queued(key), want)
				}
			case 7: // drain
				pair.apply(wbDrain, now, key, 0)
				modelFlush()
			}
			if got, want := w.QueuedLen(), len(pending); got != want {
				t.Fatalf("step %d (op %d): QueuedLen = %d, model %d", step, op%8, got, want)
			}
		}

		// Quiesce and compare end states: queue empty, zero bitmap exact,
		// store holding exactly the model's durable tags.
		pair.apply(wbDrain, now+time.Second, 0, 0)
		modelFlush()
		if w.QueuedLen() != 0 {
			t.Fatalf("final QueuedLen = %d", w.QueuedLen())
		}
		if got, want := w.Snapshot().ZeroBitmap, len(zero); got != want {
			t.Fatalf("final zero bitmap %d entries, model %d", got, want)
		}
		late := now + time.Minute
		for k := 0; k < keySpace; k++ {
			key := keyOf(byte(k))
			data, _, err := store.Get(late, key)
			tag, stored := durable[key]
			if !stored {
				if !errors.Is(err, kvstore.ErrNotFound) {
					t.Fatalf("key %d: store holds a page the model never flushed (err=%v)", k, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("key %d: %v", k, err)
			}
			if data[0] != tag {
				t.Fatalf("key %d: store tag %d, model %d", k, data[0], tag)
			}
		}
	})
}
