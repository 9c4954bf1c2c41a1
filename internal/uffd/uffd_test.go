package uffd

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"fluidmem/internal/clock"
)

func newFD(t *testing.T) (*FD, *Region) {
	t.Helper()
	f := New(DefaultParams(), 1)
	r, err := f.Register(0x100000, 64*PageSize, 1234)
	if err != nil {
		t.Fatal(err)
	}
	return f, r
}

func filled(tag byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = tag
	}
	return p
}

func TestRegisterValidation(t *testing.T) {
	f := New(DefaultParams(), 1)
	if _, err := f.Register(0x1001, PageSize, 1); err == nil {
		t.Fatal("unaligned start accepted")
	}
	if _, err := f.Register(0x1000, 100, 1); err == nil {
		t.Fatal("unaligned length accepted")
	}
	if _, err := f.Register(0x1000, 0, 1); err == nil {
		t.Fatal("zero length accepted")
	}
	// A negative size in MB shifted into bytes: the range wraps past 2^64.
	mb := -1
	if _, err := f.Register(0x7f0000000000, uint64(mb)<<20, 1); err == nil {
		t.Fatal("wrapping range accepted")
	}
}

func TestRegisterOverlapRejected(t *testing.T) {
	f := New(DefaultParams(), 1)
	if _, err := f.Register(0x10000, 16*PageSize, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Register(0x10000+8*PageSize, 16*PageSize, 2); err == nil {
		t.Fatal("overlapping region accepted")
	}
	// Adjacent is fine.
	if _, err := f.Register(0x10000+16*PageSize, 16*PageSize, 2); err != nil {
		t.Fatalf("adjacent region rejected: %v", err)
	}
}

func TestFirstAccessFaults(t *testing.T) {
	f, r := newFD(t)
	data, eventAt, hit, err := f.Access(0, r.Start, false)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first access should miss")
	}
	if data != nil {
		t.Fatal("missed access returned data")
	}
	if eventAt <= 0 {
		t.Fatal("fault trap cost missing")
	}
	ev, ok := f.NextEvent()
	if !ok {
		t.Fatal("no fault event queued")
	}
	if ev.Addr != r.Start || ev.PID != 1234 {
		t.Fatalf("event = %+v", ev)
	}
	if !f.Waiting(r.Start) {
		t.Fatal("vCPU not recorded as blocked")
	}
}

func TestEventAddrPageAligned(t *testing.T) {
	f, r := newFD(t)
	if _, _, _, err := f.Access(0, r.Start+123, true); err != nil {
		t.Fatal(err)
	}
	ev, _ := f.NextEvent()
	if ev.Addr != r.Start {
		t.Fatalf("event addr %#x not aligned to %#x", ev.Addr, r.Start)
	}
	if !ev.Write {
		t.Fatal("write flag lost")
	}
}

func TestAccessOutsideRegions(t *testing.T) {
	f, _ := newFD(t)
	if _, _, _, err := f.Access(0, 0xdead0000, false); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("err = %v", err)
	}
}

func TestZeroPageResolvesRead(t *testing.T) {
	f, r := newFD(t)
	f.Access(0, r.Start, false)
	f.NextEvent()
	if _, err := f.ZeroPage(0, r.Start); err != nil {
		t.Fatal(err)
	}
	f.Wake(0, r.Start)
	if f.Waiting(r.Start) {
		t.Fatal("still waiting after wake")
	}
	data, _, hit, err := f.Access(0, r.Start, false)
	if err != nil || !hit {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	if !bytes.Equal(data, make([]byte, PageSize)) {
		t.Fatal("zero page is not zero")
	}
	if r.State(r.Start) != PageZeroCOW {
		t.Fatalf("state = %v, want zero-COW", r.State(r.Start))
	}
}

func TestZeroCOWBreaksOnWrite(t *testing.T) {
	f, r := newFD(t)
	f.Access(0, r.Start, false)
	f.NextEvent()
	f.ZeroPage(0, r.Start)
	// Write: kernel-internal COW break, no new uffd event.
	data, done, hit, err := f.Access(0, r.Start, true)
	if err != nil || !hit {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	if done <= 0 {
		t.Fatal("COW break cost missing")
	}
	if f.PendingEvents() != 0 {
		t.Fatal("COW break raised a uffd event")
	}
	if r.State(r.Start) != PagePresent {
		t.Fatal("page not private after COW break")
	}
	// The returned frame is writable guest memory.
	data[0] = 0x5A
	again, _, _, _ := f.Access(0, r.Start, false)
	if again[0] != 0x5A {
		t.Fatal("write to private page lost")
	}
}

func TestCopyResolvesWithData(t *testing.T) {
	f, r := newFD(t)
	addr := r.Start + 4*PageSize
	f.Access(0, addr, false)
	f.NextEvent()
	if _, err := f.Copy(0, addr, filled(0x7F)); err != nil {
		t.Fatal(err)
	}
	data, _, hit, err := f.Access(0, addr, false)
	if err != nil || !hit {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	if !bytes.Equal(data, filled(0x7F)) {
		t.Fatal("copied data corrupted")
	}
}

func TestCopyValidation(t *testing.T) {
	f, r := newFD(t)
	if _, err := f.Copy(0, r.Start, []byte("short")); err == nil {
		t.Fatal("short copy accepted")
	}
	if _, err := f.Copy(0, 0xdead0000, filled(1)); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("err = %v", err)
	}
	if _, err := f.Copy(0, r.Start, filled(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Copy(0, r.Start, filled(2)); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("double copy err = %v", err)
	}
}

func TestZeroPageOnMappedFails(t *testing.T) {
	f, r := newFD(t)
	f.Copy(0, r.Start, filled(1))
	if _, err := f.ZeroPage(0, r.Start); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemapEvictsZeroCopy(t *testing.T) {
	f, r := newFD(t)
	f.Copy(0, r.Start, filled(0x42))
	data, done, err := f.Remap(0, r.Start, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, filled(0x42)) {
		t.Fatal("remapped contents wrong")
	}
	if done <= 0 {
		t.Fatal("remap cost missing")
	}
	if r.State(r.Start) != PageMissing {
		t.Fatal("page still mapped after remap")
	}
	// Next access faults again.
	_, _, hit, err := f.Access(0, r.Start, false)
	if err != nil || hit {
		t.Fatalf("hit=%v err=%v after eviction", hit, err)
	}
}

func TestRemapZeroCOWMaterialisesZeroes(t *testing.T) {
	f, r := newFD(t)
	f.ZeroPage(0, r.Start)
	data, _, err := f.Remap(0, r.Start, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, make([]byte, PageSize)) {
		t.Fatal("evicted zero-COW page not zero")
	}
}

func TestRemapMissingFails(t *testing.T) {
	f, r := newFD(t)
	if _, _, err := f.Remap(0, r.Start, false); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemapInterleavedRemovesShootdownTail(t *testing.T) {
	// Table I gives synchronous UFFD_REMAP a 1.65 µs average but an 18 µs
	// p99 (TLB-shootdown IPIs); §V-B reports the interleaved call returns in
	// a flat ~2 µs. The win of interleaving is tail removal and overlap, not
	// a lower mean, so assert on worst-case behaviour.
	f, r := newFD(t)
	var syncWorst, interWorst time.Duration
	const n = 3000
	for i := 0; i < n; i++ {
		addr := r.Start
		f.Copy(0, addr, filled(1))
		_, done, err := f.Remap(0, addr, false)
		if err != nil {
			t.Fatal(err)
		}
		if done > syncWorst {
			syncWorst = done
		}
		f.Copy(0, addr, filled(1))
		_, done, err = f.Remap(0, addr, true)
		if err != nil {
			t.Fatal(err)
		}
		if done > interWorst {
			interWorst = done
		}
	}
	if interWorst > 4*time.Microsecond {
		t.Fatalf("interleaved worst case %v, want flat ~2µs", interWorst)
	}
	if syncWorst < 2*interWorst {
		t.Fatalf("sync worst %v vs interleaved worst %v: shootdown tail missing", syncWorst, interWorst)
	}
}

func TestRemapSyncHasShootdownTail(t *testing.T) {
	f, r := newFD(t)
	worst := time.Duration(0)
	for i := 0; i < 5000; i++ {
		f.Copy(0, r.Start, filled(1))
		_, done, err := f.Remap(0, r.Start, false)
		if err != nil {
			t.Fatal(err)
		}
		if done > worst {
			worst = done
		}
	}
	if worst < 10*time.Microsecond {
		t.Fatalf("worst sync remap %v, want a TLB-shootdown tail ≥10µs", worst)
	}
}

func TestMappedPagesCountsFootprint(t *testing.T) {
	f, r := newFD(t)
	for i := 0; i < 10; i++ {
		f.Copy(0, r.Start+uint64(i)*PageSize, filled(byte(i)))
	}
	if r.MappedPages() != 10 {
		t.Fatalf("MappedPages = %d", r.MappedPages())
	}
	f.Remap(0, r.Start, false)
	if r.MappedPages() != 9 {
		t.Fatalf("MappedPages after evict = %d", r.MappedPages())
	}
}

func TestUnregisterDropsRegionAndEvents(t *testing.T) {
	f := New(DefaultParams(), 1)
	r1, _ := f.Register(0x100000, 16*PageSize, 1)
	r2, _ := f.Register(0x200000, 16*PageSize, 2)
	f.Access(0, r1.Start, false)
	f.Access(0, r2.Start, false)
	f.Unregister(r1)
	if len(f.Regions()) != 1 {
		t.Fatalf("regions = %d", len(f.Regions()))
	}
	if f.PendingEvents() != 1 {
		t.Fatalf("pending = %d, want only r2's event", f.PendingEvents())
	}
	ev, _ := f.NextEvent()
	if ev.Addr != r2.Start {
		t.Fatalf("surviving event = %+v", ev)
	}
	if _, _, _, err := f.Access(0, r1.Start, false); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("access to dead region: %v", err)
	}
}

// TestUnregisterRecyclesFrames pins the fix for the frame leak on VM
// teardown: Unregister used to drop the frames its pages mapped, so a monitor
// that outlives a VM allocated 4 KiB per page all over again for the next one.
func TestUnregisterRecyclesFrames(t *testing.T) {
	f, r := newFD(t)
	const pages = 64
	// fill maps every page of r and returns the frames that back them.
	fill := func(r *Region) map[*byte]bool {
		frames := map[*byte]bool{}
		for i := uint64(0); i < pages; i++ {
			if _, err := f.Copy(0, r.Start+i*PageSize, filled(byte(i))); err != nil {
				t.Fatal(err)
			}
			frame, _, _, _ := f.Access(0, r.Start+i*PageSize, false)
			frames[&frame[0]] = true
		}
		if mapped, pooled := f.FrameCounts(); mapped != pages || pooled != 0 || len(frames) != pages {
			t.Fatalf("after fill: %d frames mapped (%d distinct), %d pooled, want %d and 0", mapped, len(frames), pooled, pages)
		}
		return frames
	}
	first := fill(r)
	f.Unregister(r)
	if mapped, pooled := f.FrameCounts(); mapped != 0 || pooled != pages {
		t.Fatalf("after unregister: %d frames mapped, %d pooled, want 0 and %d", mapped, pooled, pages)
	}
	again, err := f.Register(r.Start, r.Length, r.PID)
	if err != nil {
		t.Fatal(err)
	}
	for frame := range fill(again) {
		if !first[frame] {
			t.Fatal("the next VM's page got a newly allocated frame, not one the dead VM left")
		}
	}
}

func TestEventsFIFO(t *testing.T) {
	f, r := newFD(t)
	for i := 0; i < 5; i++ {
		f.Access(time.Duration(i), r.Start+uint64(i)*PageSize, false)
	}
	for i := 0; i < 5; i++ {
		ev, ok := f.NextEvent()
		if !ok || ev.Addr != r.Start+uint64(i)*PageSize {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	if _, ok := f.NextEvent(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestWriteProtectTracksDirtiness(t *testing.T) {
	f, _ := newFD(t)
	addr := uint64(0x100000)
	if _, err := f.Copy(0, addr, filled(7)); err != nil {
		t.Fatal(err)
	}
	if f.PageClean(addr) {
		t.Fatal("unprotected page reported clean")
	}
	f.Drop(addr)
	copied, done, err := f.CopyWP(time.Microsecond, addr, filled(7))
	if err != nil {
		t.Fatal(err)
	}
	if copied <= time.Microsecond || done <= copied {
		t.Fatalf("CopyWP: copied at %v, protected at %v — a half cost nothing", copied, done)
	}
	if !f.PageClean(addr) {
		t.Fatal("protected page not clean")
	}

	// Reads do not disturb cleanliness and cost nothing extra.
	data, at, hit, err := f.Access(done, addr, false)
	if err != nil || !hit {
		t.Fatalf("read: hit=%v err=%v", hit, err)
	}
	if at != done {
		t.Fatalf("read of clean page cost %v", at-done)
	}
	if !bytes.Equal(data, filled(7)) {
		t.Fatal("data corrupted by protection")
	}
	if !f.PageClean(addr) {
		t.Fatal("read cleared cleanliness")
	}

	// The first write takes a WP fault, charges its cost, and dirties the page.
	_, at2, hit, err := f.Access(done, addr, true)
	if err != nil || !hit {
		t.Fatalf("write: hit=%v err=%v", hit, err)
	}
	if at2 <= done {
		t.Fatal("WP fault cost nothing")
	}
	if f.PageClean(addr) {
		t.Fatal("written page still clean")
	}
	if f.WPFaults() != 1 {
		t.Fatalf("WPFaults = %d, want 1", f.WPFaults())
	}

	// The second write is free: protection is gone.
	_, at3, _, err := f.Access(at2, addr, true)
	if err != nil {
		t.Fatal(err)
	}
	if at3 != at2 {
		t.Fatalf("second write cost %v", at3-at2)
	}
	if f.WPFaults() != 1 {
		t.Fatalf("WPFaults = %d after free write, want 1", f.WPFaults())
	}
}

// TestWriteProtectRejectsMissingAndZeroCOW: the write-protect mode refuses
// what Copy refuses — an address outside every region, a short buffer, and an
// already-mapped page, the zero-COW one included — and only a page it
// installed is clean.
func TestWriteProtectRejectsMissingAndZeroCOW(t *testing.T) {
	f, _ := newFD(t)
	if f.PageClean(0x100000) {
		t.Fatal("missing page reported clean")
	}
	if _, _, err := f.CopyWP(0, 0x999999000, filled(1)); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("unregistered: err = %v, want ErrNotRegistered", err)
	}
	if _, _, err := f.CopyWP(0, 0x100000, []byte("short")); err == nil {
		t.Fatal("short write-protected copy accepted")
	}
	if _, err := f.ZeroPage(0, 0x101000); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.CopyWP(0, 0x101000, filled(1)); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("zero-COW page: err = %v, want ErrAlreadyMapped", err)
	}
	if f.PageClean(0x101000) {
		t.Fatal("zero-COW page reported clean")
	}
	if _, pooled := f.FrameCounts(); pooled != 0 || f.PageCopies() != 0 {
		t.Fatalf("refused installs left %d pooled frames and %d copies", pooled, f.PageCopies())
	}
}

func TestWriteProtectClearedByRemapAndReinstall(t *testing.T) {
	f, _ := newFD(t)
	addr := uint64(0x102000)
	if _, _, err := f.CopyWP(0, addr, filled(3)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Remap(0, addr, false); err != nil {
		t.Fatal(err)
	}
	if f.PageClean(addr) {
		t.Fatal("evicted page reported clean")
	}
	// Re-install without protection: dirty by default (conservative).
	if _, err := f.Copy(0, addr, filled(4)); err != nil {
		t.Fatal(err)
	}
	if f.PageClean(addr) {
		t.Fatal("fresh install reported clean without protection")
	}
}

// TestCopyWPSharesUntilFirstWrite pins the shared-frame contract of a
// write-protected install: the page maps the caller's buffer and nothing is
// copied; the guest's first write lands in a private copy, never in the
// buffer, at the very samples (Copy, WriteProtect, WPFault, in that order)
// the install and fault drew before sharing existed; a shared buffer never
// reaches the pool — Remap hands out a copy, RemapDrop, Drop and Unregister
// forget it — and FrameCounts counts only the frames the descriptor owns.
func TestCopyWPSharesUntilFirstWrite(t *testing.T) {
	f, r := newFD(t)
	ref := clock.NewRand(1)
	p := DefaultParams()
	src := filled(0x5C)

	copied, done, err := f.CopyWP(0, r.Start, src)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Copy.Sample(ref); copied != want {
		t.Fatalf("copied at %v, want the Copy sample %v", copied, want)
	}
	if want := copied + p.WriteProtect.Sample(ref); done != want {
		t.Fatalf("protected at %v, want %v", done, want)
	}
	data, _, _, _ := f.Access(done, r.Start, false)
	if &data[0] != &src[0] {
		t.Fatal("a write-protected install copied its buffer")
	}
	if mapped, pooled := f.FrameCounts(); mapped != 0 || pooled != 0 || f.PageCopies() != 0 {
		t.Fatalf("after a shared install: %d mapped, %d pooled, %d copies; want 0, 0, 0", mapped, pooled, f.PageCopies())
	}

	// The first write: one WP fault at the WPFault sample, one host copy, and
	// the write lands in the private frame.
	frame, at, _, err := f.Access(done, r.Start+8, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := done + p.WPFault.Sample(ref); at != want || f.WPFaults() != 1 {
		t.Fatalf("first write at %v with %d WP faults, want %v and 1", at, f.WPFaults(), want)
	}
	frame[8] = 0xEE
	if !bytes.Equal(src, filled(0x5C)) {
		t.Fatal("the guest's write reached the shared buffer")
	}
	if again, _, _, _ := f.Access(at, r.Start, false); again[8] != 0xEE {
		t.Fatal("the write is not visible to the next read")
	}
	if mapped, _ := f.FrameCounts(); mapped != 1 || f.PageCopies() != 1 {
		t.Fatalf("after the first write: %d mapped, %d copies; want 1 and 1", mapped, f.PageCopies())
	}

	// Remap of a shared page: an owned copy, not the buffer.
	addr := r.Start + PageSize
	if _, _, err := f.CopyWP(0, addr, src); err != nil {
		t.Fatal(err)
	}
	out, _, err := f.Remap(0, addr, false)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] == &src[0] || !bytes.Equal(out, src) {
		t.Fatal("Remap of a shared page did not hand out a copy of its bytes")
	}
	for i := range out {
		out[i] = 0xFD // the caller's to scribble on
	}
	f.Recycle(out)

	// RemapDrop, Drop and Unregister forget shared buffers: the pool gains
	// nothing from them, and no later frame is one of them.
	pooledBefore := func() int { _, n := f.FrameCounts(); return n }()
	for i, forget := range []func(addr uint64){
		func(addr uint64) {
			if _, err := f.RemapDrop(0, addr, false); err != nil {
				t.Fatal(err)
			}
		},
		func(addr uint64) { f.Drop(addr) },
	} {
		addr := r.Start + uint64(2+i)*PageSize
		if _, _, err := f.CopyWP(0, addr, src); err != nil {
			t.Fatal(err)
		}
		forget(addr)
		if r.State(addr) != PageMissing {
			t.Fatalf("forget %d left the page mapped", i)
		}
	}
	for i := uint64(4); i < 8; i++ {
		if _, _, err := f.CopyWP(0, r.Start+i*PageSize, src); err != nil {
			t.Fatal(err)
		}
	}
	copies := f.PageCopies()
	f.Unregister(r)
	if mapped, pooled := f.FrameCounts(); mapped != 0 || pooled != pooledBefore+1 {
		// +1: the private frame of the first page, written above.
		t.Fatalf("after teardown: %d mapped, %d pooled; want 0 and %d", mapped, pooled, pooledBefore+1)
	}
	if f.PageCopies() != copies {
		t.Fatal("forgetting shared pages copied them")
	}
	for n := f.freeFrames; len(n) > 0; n = n[1:] {
		if &n[0][0] == &src[0] {
			t.Fatal("a shared buffer reached the pool")
		}
	}
	if !bytes.Equal(src, filled(0x5C)) {
		t.Fatal("the shared buffer changed")
	}
}

// TestCopyWPAllocatesNothing: a write-protected install and its clean drop,
// and a write-protected install, its first write and the dirty eviction's
// recycle, run on pooled frames once the pool is warm.
func TestCopyWPAllocatesNothing(t *testing.T) {
	f, r := newFD(t)
	src := filled(1)
	cycle := func() {
		if _, _, err := f.CopyWP(0, r.Start, src); err != nil {
			t.Fatal(err)
		}
		if _, err := f.RemapDrop(0, r.Start, true); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.CopyWP(0, r.Start, src); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := f.Access(0, r.Start, true); err != nil {
			t.Fatal(err)
		}
		data, _, err := f.Remap(0, r.Start, false)
		if err != nil {
			t.Fatal(err)
		}
		f.Recycle(data)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%v allocs per write-protected install cycle, want 0", allocs)
	}
}

// TestWorkerOfMatchesReference pins the one page→worker function, mask and
// modulo alike, to (addr/PageSize) % n at the widths the drivers use and two
// that are not powers of two, on addresses up to the top of the address space.
func TestWorkerOfMatchesReference(t *testing.T) {
	addrs := []uint64{
		0, PageSize - 1, PageSize, PageSize + 1, 7 * PageSize, 8*PageSize - 1,
		0x7f00_0000_0000, 0x7fff_ffff_f000, 1 << 52, ^uint64(0) - PageSize, ^uint64(0),
	}
	for page := uint64(0); page < 64; page++ {
		addrs = append(addrs, 0x7f00_0000_0000+page*PageSize+page)
	}
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		for _, addr := range addrs {
			if got, want := WorkerOf(addr, n), int((addr/PageSize)%uint64(n)); got != want {
				t.Fatalf("WorkerOf(%#x, %d) = %d, want %d", addr, n, got, want)
			}
		}
	}
}
