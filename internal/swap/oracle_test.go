package swap

import (
	"testing"
	"time"

	"fluidmem/internal/blockdev"
	"fluidmem/internal/clock"
	"fluidmem/internal/vm"
)

// TestSwapAgainstOracle model-checks the swap subsystem with a long random
// sequence of reads, writes, and discards over a mixed-class page population,
// mirrored against a plain in-memory oracle. Any page lost or corrupted
// through swap-out/swap-in, file writeback/refill, or reclaim ordering
// surfaces here.
func TestSwapAgainstOracle(t *testing.T) {
	for _, kind := range []blockdev.Kind{blockdev.KindPmem, blockdev.KindNVMeoF, blockdev.KindSSD} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			runSwapOracle(t, kind, 4000, 96, 48, 0xCAFE)
		})
	}
}

func runSwapOracle(t *testing.T, kind blockdev.Kind, steps, pages, frames int, seed uint64) {
	t.Helper()
	var devParams blockdev.Params
	switch kind {
	case blockdev.KindPmem:
		devParams = blockdev.PmemParams(1 << 30)
	case blockdev.KindNVMeoF:
		devParams = blockdev.NVMeoFParams(1 << 30)
	default:
		devParams = blockdev.SSDParams(1 << 30)
	}
	swapDev, err := blockdev.New(devParams, seed)
	if err != nil {
		t.Fatal(err)
	}
	fsDev, err := blockdev.New(blockdev.SSDParams(1<<30), seed+1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(DefaultParams(frames), swapDev, fsDev, seed+2)
	if err != nil {
		t.Fatal(err)
	}
	rng := clock.NewRand(seed)
	// Mixed classes: mostly anon, some file, a few kernel pages (the kernel
	// set must stay below the frame count or the guest OOMs).
	classes := make([]vm.PageClass, pages)
	for i := range classes {
		switch {
		case i < frames/8:
			classes[i] = vm.ClassKernel
		case i%5 == 0:
			classes[i] = vm.ClassFile
		default:
			classes[i] = vm.ClassAnon
		}
		s.SetClass(addr(i), classes[i])
	}
	oracle := make([][]byte, pages)
	now := time.Duration(0)

	for step := 0; step < steps; step++ {
		page := rng.Intn(pages)
		a := addr(page)
		switch rng.Intn(8) {
		case 0: // discard (balloon) — anon only: a discarded file-backed
			// page legitimately refills from its disk copy (MADV_DONTNEED
			// on a file mapping), so zeroes are not the expected contents.
			if classes[page] != vm.ClassAnon {
				continue
			}
			s.Discard(a)
			oracle[page] = nil
		case 1, 2, 3: // write
			data, done, err := s.Touch(now, a, true)
			if err != nil {
				t.Fatalf("step %d write page %d (%v): %v", step, page, classes[page], err)
			}
			now = done
			if oracle[page] == nil {
				oracle[page] = make([]byte, PageSize)
			}
			off := rng.Intn(PageSize)
			val := byte(rng.Uint64()) | 1
			data[off] = val
			oracle[page][off] = val
		default: // read and spot-check
			data, done, err := s.Touch(now, a, false)
			if err != nil {
				t.Fatalf("step %d read page %d (%v): %v", step, page, classes[page], err)
			}
			now = done
			want := oracle[page]
			for off := 0; off < PageSize; off += 101 {
				var w byte
				if want != nil {
					w = want[off]
				}
				if data[off] != w {
					t.Fatalf("step %d: page %d (%v) offset %d = %#x, oracle %#x",
						step, page, classes[page], off, data[off], w)
				}
			}
		}
		if got := s.ResidentPages(); got > frames {
			t.Fatalf("step %d: resident %d > frames %d", step, got, frames)
		}
		// Kernel pages, once resident, must stay resident.
		for i := 0; i < frames/8; i++ {
			if oracle[i] != nil && classes[i] == vm.ClassKernel {
				if !s.resident(addr(i)) {
					t.Fatalf("step %d: kernel page %d evicted", step, i)
				}
			}
		}
	}
	st := s.Stats()
	if st.SwapOuts == 0 || st.MajorFaults == 0 {
		t.Fatalf("workload never exercised swap: %+v", st)
	}
}
