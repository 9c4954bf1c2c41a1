package uffd

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"fluidmem/internal/clock"
)

// refFD is the reference model of the descriptor's page tables: the
// map-backed implementation the dense per-region table replaced, kept here so
// the table can be held to it. It draws from its own sampler in the same
// order, so returned times must match as well as states, contents and errors.
// The one deliberate difference from the old code is that a region's blocked
// vCPUs are forgotten with the region (the old global map leaked them). The
// model copies on every install; it also counts the host copies the
// descriptor should make, where a write-protected install shares its buffer
// until the first write.
type refFD struct {
	params   Params
	rng      *clock.Rand
	regions  []*refRegion
	events   []Event
	wpFaults uint64
	copies   uint64
}

type refPage struct {
	state PageState
	data  []byte
	wp    bool
}

type refRegion struct {
	start, length uint64
	pid           int
	pages         map[uint64]*refPage
	waiting       map[uint64]bool
}

func (f *refFD) regionFor(addr uint64) *refRegion {
	for _, r := range f.regions {
		if addr >= r.start && addr < r.start+r.length {
			return r
		}
	}
	return nil
}

func (f *refFD) register(start, length uint64, pid int) *refRegion {
	r := &refRegion{start: start, length: length, pid: pid, pages: map[uint64]*refPage{}, waiting: map[uint64]bool{}}
	f.regions = append(f.regions, r)
	return r
}

func (f *refFD) unregister(region *refRegion) {
	kept := f.regions[:0]
	for _, r := range f.regions {
		if r != region {
			kept = append(kept, r)
		}
	}
	f.regions = kept
	var events []Event
	for _, ev := range f.events {
		if ev.Addr < region.start || ev.Addr >= region.start+region.length {
			events = append(events, ev)
		}
	}
	f.events = events
}

func (f *refFD) access(now time.Duration, addr uint64, write bool) ([]byte, time.Duration, bool, error) {
	r := f.regionFor(addr)
	if r == nil {
		return nil, now, false, ErrNotRegistered
	}
	aligned := align(addr)
	p, ok := r.pages[aligned]
	if !ok {
		trap := f.params.FaultTrap.Sample(f.rng)
		f.events = append(f.events, Event{Addr: aligned, PID: r.pid, Write: write, Raised: now})
		r.waiting[aligned] = true
		return nil, now + trap, false, nil
	}
	if p.state == PageZeroCOW {
		if !write {
			return make([]byte, PageSize), now, true, nil
		}
		p.state = PagePresent
		p.data = make([]byte, PageSize)
		return p.data, now + f.params.COWBreak.Sample(f.rng), true, nil
	}
	if write && p.wp {
		p.wp = false
		f.wpFaults++
		f.copies++
		return p.data, now + f.params.WPFault.Sample(f.rng), true, nil
	}
	return p.data, now, true, nil
}

func (f *refFD) zeroPage(now time.Duration, addr uint64) (time.Duration, error) {
	r := f.regionFor(addr)
	if r == nil {
		return now, ErrNotRegistered
	}
	if _, ok := r.pages[align(addr)]; ok {
		return now, ErrAlreadyMapped
	}
	r.pages[align(addr)] = &refPage{state: PageZeroCOW}
	return now + f.params.ZeroPage.Sample(f.rng), nil
}

// copyIn is Copy, and with wp CopyWP: the old Copy followed by the old
// UFFDIO_WRITEPROTECT, two samples in that order.
func (f *refFD) copyIn(now time.Duration, addr uint64, data []byte, wp bool) (time.Duration, time.Duration, error) {
	r := f.regionFor(addr)
	if r == nil {
		return now, now, ErrNotRegistered
	}
	if _, ok := r.pages[align(addr)]; ok {
		return now, now, ErrAlreadyMapped
	}
	r.pages[align(addr)] = &refPage{state: PagePresent, data: append([]byte(nil), data...), wp: wp}
	copied := now + f.params.Copy.Sample(f.rng)
	if !wp {
		f.copies++
		return copied, copied, nil
	}
	return copied, copied + f.params.WriteProtect.Sample(f.rng), nil
}

func (f *refFD) pageClean(addr uint64) bool {
	r := f.regionFor(addr)
	if r == nil {
		return false
	}
	p, ok := r.pages[align(addr)]
	return ok && p.state == PagePresent && p.wp
}

func (f *refFD) remap(now time.Duration, addr uint64, interleaved bool) ([]byte, time.Duration, error) {
	r := f.regionFor(addr)
	if r == nil {
		return nil, now, ErrNotRegistered
	}
	p, ok := r.pages[align(addr)]
	if !ok {
		return nil, now, ErrNotMapped
	}
	data := p.data
	if p.state == PageZeroCOW {
		data = make([]byte, PageSize)
	}
	if p.wp {
		f.copies++ // Remap hands out a copy of a buffer the descriptor does not own
	}
	delete(r.pages, align(addr))
	model := f.params.Remap
	if interleaved {
		model = f.params.RemapInterleaved
	}
	return data, now + model.Sample(f.rng), nil
}

func (f *refFD) drop(addr uint64) bool {
	r := f.regionFor(addr)
	if r == nil {
		return false
	}
	if _, ok := r.pages[align(addr)]; !ok {
		return false
	}
	delete(r.pages, align(addr))
	return true
}

func (f *refFD) wake(now time.Duration, addr uint64) time.Duration {
	if r := f.regionFor(addr); r != nil {
		delete(r.waiting, align(addr))
	}
	return now + f.params.Wake.Sample(f.rng)
}

func (f *refFD) waiting(addr uint64) bool {
	r := f.regionFor(addr)
	return r != nil && r.waiting[align(addr)]
}

// ownedFrames counts the present pages whose frame the descriptor should own:
// every private page but a write-protected one, which shares its buffer.
func (f *refFD) ownedFrames() int {
	n := 0
	for _, r := range f.regions {
		for _, p := range r.pages {
			if p.state == PagePresent && !p.wp {
				n++
			}
		}
	}
	return n
}

// sameErr holds the table to the model's error class.
func sameErr(got, want error) bool {
	if want == nil || got == nil {
		return want == nil && got == nil
	}
	return errors.Is(got, want)
}

// TestPageTableMatchesMapModel drives random page operations over three
// regions, unregistering and re-registering them mid-stream, through the
// descriptor and the map-backed reference: every returned time, buffer, flag
// and error class must agree, as must every page's state, each region's
// MappedPages, the blocked-vCPU set, the event queue, the owned-frame count
// and the host copy count. Every buffer a CopyWP install shared must keep
// its bytes whatever the guest writes.
func TestPageTableMatchesMapModel(t *testing.T) {
	const pages = 24
	bases := [3]uint64{0x100000, 0x400000, 0x400000 + pages*PageSize} // the last two adjacent
	for seed := uint64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			f := New(DefaultParams(), seed)
			ref := &refFD{params: DefaultParams(), rng: clock.NewRand(seed)}
			var regions [3]*Region
			var refRegions [3]*refRegion
			register := func(i int) {
				r, err := f.Register(bases[i], pages*PageSize, 10+i)
				if err != nil {
					t.Fatal(err)
				}
				regions[i], refRegions[i] = r, ref.register(bases[i], pages*PageSize, 10+i)
			}
			for i := range regions {
				register(i)
			}
			pick := clock.NewRand(seed + 1000)
			now := time.Duration(0)
			type sharedBuf struct {
				buf  []byte
				want byte
			}
			var shared []sharedBuf
			for step := 0; step < 20000; step++ {
				ri := pick.Intn(3)
				// One page past either end of the region: a neighbour's page
				// or no region at all.
				addr := bases[ri] + uint64(pick.Intn(pages+2)-1)*PageSize + uint64(pick.Intn(PageSize))
				now += time.Duration(pick.Intn(2000))
				op := pick.Intn(20)
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("step %d op %d addr %#x: %s", step, op, addr, fmt.Sprintf(format, args...))
				}
				switch {
				case op < 6:
					write := pick.Intn(2) == 0
					data, at, hit, err := f.Access(now, addr, write)
					wdata, wat, whit, werr := ref.access(now, addr, write)
					if !sameErr(err, werr) || at != wat || hit != whit || !bytes.Equal(data, wdata) {
						fail("Access = (%d bytes, %v, %v, %v), model (%d bytes, %v, %v, %v)", len(data), at, hit, err, len(wdata), wat, whit, werr)
					}
					if hit && write {
						// The guest's store lands in both copies.
						data[addr%PageSize] = byte(step)
						wdata[addr%PageSize] = byte(step)
					}
				case op < 8:
					done, err := f.ZeroPage(now, addr)
					wdone, werr := ref.zeroPage(now, addr)
					if !sameErr(err, werr) || done != wdone {
						fail("ZeroPage = (%v, %v), model (%v, %v)", done, err, wdone, werr)
					}
				case op < 11:
					done, err := f.Copy(now, addr, filled(byte(step)))
					wdone, _, werr := ref.copyIn(now, addr, filled(byte(step)), false)
					if !sameErr(err, werr) || done != wdone {
						fail("Copy = (%v, %v), model (%v, %v)", done, err, wdone, werr)
					}
				case op < 13:
					buf := filled(byte(step))
					copied, done, err := f.CopyWP(now, addr, buf)
					wcopied, wdone, werr := ref.copyIn(now, addr, filled(byte(step)), true)
					if !sameErr(err, werr) || copied != wcopied || done != wdone {
						fail("CopyWP = (%v, %v, %v), model (%v, %v, %v)", copied, done, err, wcopied, wdone, werr)
					}
					shared = append(shared, sharedBuf{buf, byte(step)})
				case op < 16:
					interleaved := pick.Intn(2) == 0
					data, done, err := f.Remap(now, addr, interleaved)
					wdata, wdone, werr := ref.remap(now, addr, interleaved)
					if !sameErr(err, werr) || done != wdone || !bytes.Equal(data, wdata) {
						fail("Remap = (%d bytes, %v, %v), model (%d bytes, %v, %v)", len(data), done, err, len(wdata), wdone, werr)
					}
					f.Recycle(data)
				case op < 17:
					if got, want := f.Drop(addr), ref.drop(addr); got != want {
						fail("Drop = %v, model %v", got, want)
					}
				case op < 19:
					if got, want := f.Wake(now, addr), ref.wake(now, addr); got != want {
						fail("Wake = %v, model %v", got, want)
					}
				default:
					if pick.Intn(10) == 0 {
						f.Unregister(regions[ri])
						ref.unregister(refRegions[ri])
						register(ri)
					}
				}
				if got, want := f.PageClean(addr), ref.pageClean(addr); got != want {
					fail("PageClean = %v, model %v", got, want)
				}
				if got, want := f.Waiting(addr), ref.waiting(addr); got != want {
					fail("Waiting = %v, model %v", got, want)
				}
				if step%64 != 0 {
					continue
				}
				for i, r := range regions {
					if got, want := r.MappedPages(), len(refRegions[i].pages); got != want {
						fail("region %d MappedPages = %d, model %d", i, got, want)
					}
					for p := uint64(0); p < pages; p++ {
						a := r.Start + p*PageSize
						want := PageMissing
						if rp := refRegions[i].pages[a]; rp != nil {
							want = rp.state
						}
						if got := r.State(a); got != want {
							fail("region %d page %d state %v, model %v", i, p, got, want)
						}
					}
				}
				if got, want := f.WPFaults(), ref.wpFaults; got != want {
					fail("WPFaults = %d, model %d", got, want)
				}
				if got, want := f.PageCopies(), ref.copies; got != want {
					fail("PageCopies = %d, model %d", got, want)
				}
				if got, _ := f.FrameCounts(); got != ref.ownedFrames() {
					fail("FrameCounts mapped = %d, model %d owned", got, ref.ownedFrames())
				}

				if got, want := f.PendingEvents(), len(ref.events); got != want {
					fail("PendingEvents = %d, model %d", got, want)
				}
				for f.PendingEvents() > 0 {
					ev, _ := f.NextEvent()
					if ev != ref.events[0] {
						fail("event %+v, model %+v", ev, ref.events[0])
					}
					ref.events = ref.events[1:]
				}
			}
			for i, sb := range shared {
				if !bytes.Equal(sb.buf, filled(sb.want)) {
					t.Fatalf("the buffer of CopyWP install %d was written through its page", i)
				}
			}
		})
	}
}

// TestUnregisterForgetsBlockedVCPUs is the regression test for the waiting
// set outliving its region: a dead VM's faulted page kept answering Waiting
// after the same range was registered again, and the set grew under tenant
// churn.
func TestUnregisterForgetsBlockedVCPUs(t *testing.T) {
	f, r := newFD(t)
	if _, _, hit, err := f.Access(0, r.Start, false); err != nil || hit {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	if !f.Waiting(r.Start) {
		t.Fatal("vCPU not recorded as blocked")
	}
	f.Unregister(r)
	if f.Waiting(r.Start) {
		t.Fatal("blocked vCPU outlived its region")
	}
	again, err := f.Register(r.Start, r.Length, r.PID)
	if err != nil {
		t.Fatal(err)
	}
	if f.Waiting(again.Start) {
		t.Fatal("fresh region inherited a dead VM's blocked vCPU")
	}
	if again.MappedPages() != 0 {
		t.Fatalf("fresh region has %d mapped pages", again.MappedPages())
	}
}

var benchSink []byte

// BenchmarkAccessHit is the resident-page access every guest load and store
// takes: the vm hit path, and graph500's inner loop.
func BenchmarkAccessHit(b *testing.B) {
	const pages = 4096
	f := New(DefaultParams(), 1)
	r, err := f.Register(0x7f0000000000, pages*PageSize, 1)
	if err != nil {
		b.Fatal(err)
	}
	page := filled(1)
	for i := uint64(0); i < pages; i++ {
		if _, err := f.Copy(0, r.Start+i*PageSize, page); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A stride of 61 pages visits every page before it repeats.
		benchSink, _, _, _ = f.Access(0, r.Start+uint64(i*61%pages)*PageSize, false)
	}
}

// BenchmarkInstallRemap is the fault path's page-table work: one UFFDIO_COPY
// install, the wake, and one UFFD_REMAP eviction per op, the frame recycled.
func BenchmarkInstallRemap(b *testing.B) {
	const pages = 4096
	f := New(DefaultParams(), 1)
	r, err := f.Register(0x7f0000000000, pages*PageSize, 1)
	if err != nil {
		b.Fatal(err)
	}
	page := filled(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := r.Start + uint64(i*61%pages)*PageSize
		if _, err := f.Copy(0, addr, page); err != nil {
			b.Fatal(err)
		}
		f.Wake(0, addr)
		data, _, err := f.Remap(0, addr, false)
		if err != nil {
			b.Fatal(err)
		}
		f.Recycle(data)
	}
}
