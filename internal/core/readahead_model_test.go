package core

import (
	"fmt"
	"testing"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
)

// Model-based readahead check: a monitor over DRAM with a readahead window is
// driven by an op stream of tagged writes, reads, balloon discards and
// resizes, mirrored in a flat map. Every read must return the last write —
// whichever of the VM, the write list, the compressed tier, the zero bitmap
// or the store held the page in between — the resident set must respect the
// capacity after every op, and no page buffer may drop out of circulation
// (TestSteadyStateConservesBuffers's identity over distinct buffers: mapped +
// pooled + queued owned + held by the store, whose taken keys hold none; only
// a discard's store delete may shrink it).
//
// flags: bit 0 compressed tier, bit 1 zero elision + clean drop, bit 2 a
// write batch of 3 (flushes interleave with readahead) instead of 64 (every
// evicted page stays on the write list), bit 3 synchronous write-back with
// writes that fill half a page and a one-page tier pool, which holds one such
// page, so that the pool's overflow is what reaches the write list, bit 4 a
// store that refuses every take (noTakeStore), so that a write fault installs
// the store's buffer shared instead of taking it. ops is (kind, arg) byte
// pairs.
const readaheadModelPages = 24

func runReadaheadModel(t *testing.T, capacity, window int, flags byte, ops []byte) {
	t.Helper()
	fail := func(op int, format string, args ...any) {
		t.Helper()
		t.Fatalf("capacity %d, window %d, flags %#b, op %d: %s", capacity, window, flags, op, fmt.Sprintf(format, args...))
	}
	store := dram.New(dram.DefaultParams(), 9)
	cfg := DefaultConfig(store, capacity)
	if flags&16 != 0 {
		cfg.Store = noTakeStore{store}
	}
	cfg.PrefetchPages = window
	cfg.WriteBatchSize = 64
	if flags&1 != 0 {
		p := DefaultCompressParams(4 * PageSize)
		if flags&8 != 0 {
			p.PoolBytes = PageSize
		}
		cfg.Compress = &p
	}
	if flags&8 != 0 {
		cfg.AsyncWrite = false
	}
	if flags&2 != 0 {
		cfg.ElideZeroPages = true
		cfg.CleanPageDrop = true
	}
	if flags&4 != 0 {
		cfg.WriteBatchSize = 3
	}
	m := newMonitor(t, cfg, readaheadModelPages)

	// model[p] is the page's last write: its tag, and whether the write
	// filled the whole page (incompressible) or only byte 0 (with bit 3, the
	// first half). The zero value is a page never written or discarded
	// since: all zeroes.
	type contents struct {
		tag   byte
		dense bool
	}
	var model [readaheadModelPages]contents
	frames := func() int {
		mapped, pooled := m.fd.FrameCounts()
		return mapped + pooled + m.wb.queuedOwned() + store.Buffers()
	}
	now := time.Duration(0)
	for i := 0; i+1 < len(ops); i += 2 {
		kind, arg := ops[i]%8, ops[i+1]
		page := int(arg) % readaheadModelPages
		before, discarded := frames(), false
		switch kind {
		case 0:
			m.Discard(addr(page))
			model[page] = contents{}
			discarded = true
		case 1:
			var err error
			if now, err = m.Resize(now, 1+int(arg)%16); err != nil {
				fail(i/2, "resize: %v", err)
			}
		default:
			write := kind <= 4
			data, done, err := m.Touch(now, addr(page), write)
			if err != nil {
				fail(i/2, "touch page %d (write=%v): %v", page, write, err)
			}
			now = done
			want := model[page]
			var wantLast byte
			if want.dense {
				wantLast = want.tag
			}
			if data[0] != want.tag || data[PageSize-1] != wantLast {
				fail(i/2, "page %d reads %#x..%#x, last write was %#x (dense=%v)",
					page, data[0], data[PageSize-1], want.tag, want.dense)
			}
			if write {
				next := contents{tag: byte(i/2%251) + 1, dense: kind == 4}
				clear(data)
				fillTo := 1
				switch {
				case next.dense:
					fillTo = PageSize
				case flags&8 != 0:
					fillTo = PageSize / 2
				}
				for j := range data[:fillTo] {
					data[j] = next.tag
				}
				model[page] = next
			}
		}
		if got, limit := m.ResidentPages(), m.FootprintLimit(); got > limit {
			fail(i/2, "%d pages resident, limit %d", got, limit)
		}
		if err := unseenPageFact(m); err != nil {
			fail(i/2, "%v", err)
		}
		after := frames()
		if discarded {
			after++ // the store delete frees at most the page's one buffer
		}
		if after < before {
			fail(i/2, "kind %d: %d page buffers in circulation, %d before", kind, frames(), before)
		}
	}
}

// noTakeStore is a store that declares kvstore.Reput but refuses every take.
type noTakeStore struct{ *dram.Store }

func (noTakeStore) Take(kvstore.Key, []byte) bool { return false }

// cycleOps writes pages 0..n-1 in order, cycles times over — the access
// pattern that lost pages at every capacity <= window before readahead
// stopped taking candidates off the write list early.
func cycleOps(n, cycles int) []byte {
	var ops []byte
	for c := 0; c < cycles; c++ {
		for p := 0; p < n; p++ {
			ops = append(ops, 2, byte(p))
		}
	}
	return ops
}

// TestReadaheadLosesNoQueuedPage is the page-lost regression: 12 tagged pages
// cycled three times with every evicted page still on the write list (flags
// 0: a write batch of 64), at the three (capacity, window) pairs that lost
// pages and one that did not; then the same with flushes interleaved.
func TestReadaheadLosesNoQueuedPage(t *testing.T) {
	for _, tc := range []struct{ capacity, window int }{{2, 4}, {3, 8}, {4, 4}, {8, 4}} {
		for _, flags := range []byte{0, 4} {
			runReadaheadModel(t, tc.capacity, tc.window, flags, cycleOps(12, 3))
		}
	}
}

// TestReadaheadModel runs 300 random rounds with asynchronous write-back,
// then 300 more with synchronous write-back (flags bit 3), then 300 more
// asynchronous ones over a store that refuses every take (flags bit 4).
func TestReadaheadModel(t *testing.T) {
	rng := clock.NewRand(0x5eed)
	for round := 0; round < 900; round++ {
		capacity, window, flags := 1+rng.Intn(16), rng.Intn(17), byte(rng.Intn(8))
		switch {
		case round >= 600:
			flags |= 16
		case round >= 300:
			flags |= 8
		}
		ops := make([]byte, 2*400)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		runReadaheadModel(t, capacity, window, flags, ops)
	}
}

// FuzzReadahead is TestReadaheadModel with the fuzzer choosing the capacity
// (1–16), the window (0–16), the feature flags and the op stream. The
// committed corpus holds the three (capacity, window) pairs that lost pages,
// a synchronous-write-back run whose window met a page the tier's overflow
// had queued, and a run over a store that refuses every take, with zero
// elision, clean drop and a write batch of three.
func FuzzReadahead(f *testing.F) {
	f.Add(uint8(7), uint8(4), uint8(0), cycleOps(12, 3))
	f.Add(uint8(3), uint8(16), uint8(7), []byte{4, 1, 4, 2, 4, 3, 4, 4, 2, 1, 2, 2, 5, 0, 0, 2, 5, 1, 1, 0, 5, 2})
	f.Add(uint8(3), uint8(4), uint8(9), cycleOps(12, 3))
	f.Add(uint8(3), uint8(4), uint8(16), cycleOps(12, 3))
	f.Fuzz(func(t *testing.T, capacity, window, flags uint8, ops []byte) {
		ops = ops[:min(len(ops), 4096)] // many short runs find more than a few long ones
		runReadaheadModel(t, 1+int(capacity%16), int(window%17), flags, ops)
	})
}
