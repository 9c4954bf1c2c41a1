package swap

import (
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"fluidmem/internal/blockdev"
	"fluidmem/internal/clock"
	"fluidmem/internal/vm"
)

// backingCall is one call the VM made into its backing.
type backingCall struct {
	now     time.Duration
	addr    uint64
	write   bool
	discard bool
}

// callLog is a Subsystem that records every Touch and Discard it serves.
// epoch moves where swap's epoch did before it flushed the VM's TLB instead:
// on every Touch, and on a Discard of a resident page.
type callLog struct {
	*Subsystem
	calls []backingCall
	epoch int
}

func (c *callLog) Touch(now time.Duration, addr uint64, write bool) ([]byte, time.Duration, error) {
	c.calls = append(c.calls, backingCall{now: now, addr: addr, write: write})
	c.epoch++
	return c.Subsystem.Touch(now, addr, write)
}

func (c *callLog) Discard(addr uint64) {
	c.calls = append(c.calls, backingCall{addr: addr, discard: true})
	if c.resident(addr) {
		c.epoch++
	}
	c.Subsystem.Discard(addr)
}

// oneEntryCache is the VM's access cache before the TLB: the page touched
// last, served without a backing call while the epoch it was filled at
// stands (a write only if the fill was a write).
type oneEntryCache struct {
	b            *callLog
	valid, dirty bool
	page         uint64
	epoch        int
	data         []byte
}

func (c *oneEntryCache) touch(now time.Duration, addr uint64, write bool) ([]byte, time.Duration, error) {
	page := addr &^ uint64(PageSize-1)
	if c.valid && c.page == page && c.epoch == c.b.epoch && (!write || c.dirty) {
		return c.data, now, nil
	}
	data, done, err := c.b.Touch(now, addr, write)
	if err != nil {
		return nil, done, err
	}
	c.valid, c.page, c.data, c.dirty, c.epoch = true, page, data, write, c.b.epoch
	return data, done, nil
}

// TestTLBBackingCallsMatchOneEntryCache drives a swap-backed VM with seeded
// reads, writes, balloon discards and rebinds over four times its frames,
// and the same drive through the one-entry cache the VM had before its TLB.
// Because swap moves its epoch on every call, the two must make the same
// backing calls in the same order and see the same words and times.
func TestTLBBackingCallsMatchOneEntryCache(t *testing.T) {
	const frames, pages, steps = 24, 96, 20000
	for _, seed := range []uint64{1, 2, 3} {
		tlb := &callLog{Subsystem: newSubsystem(t, frames, blockdev.KindNVMeoF)}
		ref := &callLog{Subsystem: newSubsystem(t, frames, blockdev.KindNVMeoF)}
		guest, err := vm.New(vm.Config{Name: "swap", MemBytes: pages * PageSize, Base: base}, tlb)
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range []struct {
			class vm.PageClass
			pages int
		}{{vm.ClassKernel, 2}, {vm.ClassFile, 30}, {vm.ClassAnon, pages - 32}} {
			seg, err := guest.Alloc(part.class.String(), uint64(part.pages)*PageSize, part.class)
			if err != nil {
				t.Fatal(err)
			}
			for a := seg.Start; a < seg.End(); a += PageSize {
				ref.SetClass(a, part.class)
			}
		}
		model := &oneEntryCache{b: ref}
		rng := clock.NewRand(seed)
		var tlbNow, refNow time.Duration
		page := 0
		for step := 0; step < steps; step++ {
			if rng.Intn(2) == 0 {
				page = rng.Intn(pages)
			}
			a := addr(page) + uint64(rng.Intn(PageSize/8))*8
			switch op := rng.Intn(20); {
			case op == 0:
				guest.Backing().Discard(a)
				ref.Discard(a)
			case op == 1:
				if err := guest.Rebind(tlb); err != nil {
					t.Fatal(err)
				}
				model.valid = false
			case op < 11:
				val := rng.Uint64()
				done, err := guest.Write64(tlbNow, a, val)
				data, refDone, refErr := model.touch(refNow, a, true)
				if err != nil || refErr != nil {
					t.Fatalf("seed %d step %d: write errors %v / %v", seed, step, err, refErr)
				}
				binary.LittleEndian.PutUint64(data[a%PageSize:], val)
				tlbNow, refNow = done, refDone
			default:
				got, done, err := guest.Read64(tlbNow, a)
				data, refDone, refErr := model.touch(refNow, a, false)
				if err != nil || refErr != nil {
					t.Fatalf("seed %d step %d: read errors %v / %v", seed, step, err, refErr)
				}
				if want := binary.LittleEndian.Uint64(data[a%PageSize:]); got != want {
					t.Fatalf("seed %d step %d: read %#x, one-entry cache %#x", seed, step, got, want)
				}
				tlbNow, refNow = done, refDone
			}
			if tlbNow != refNow {
				t.Fatalf("seed %d step %d: done %v, one-entry cache %v", seed, step, tlbNow, refNow)
			}
		}
		if !reflect.DeepEqual(tlb.calls, ref.calls) {
			t.Fatalf("seed %d: %d backing calls, one-entry cache made %d (or they differ)", seed, len(tlb.calls), len(ref.calls))
		}
		if tlb.Stats() != ref.Stats() {
			t.Fatalf("seed %d: stats %+v, one-entry cache %+v", seed, tlb.Stats(), ref.Stats())
		}
		if st := tlb.Stats(); st.SwapOuts == 0 || st.MajorFaults == 0 || st.FileRefills == 0 {
			t.Fatalf("seed %d: drive never exercised swap: %+v", seed, st)
		}
	}
}
