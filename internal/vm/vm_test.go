package vm

import (
	"errors"
	"testing"
	"time"
)

// fakeBacking is an unlimited- or capacity-limited in-memory backing with a
// FIFO eviction policy and a fixed per-miss latency, sufficient to exercise
// the VM in isolation from core/swap.
type fakeBacking struct {
	frames   map[uint64][]byte
	order    []uint64
	capacity int // 0 = unlimited
	missLat  time.Duration
	vm       *VM
	classes  map[uint64]PageClass

	touches, misses int
}

var (
	_ Backing    = (*fakeBacking)(nil)
	_ ClassAware = (*fakeBacking)(nil)
)

func newFakeBacking(capacity int) *fakeBacking {
	return &fakeBacking{
		frames:   make(map[uint64][]byte),
		capacity: capacity,
		missLat:  30 * time.Microsecond,
		classes:  make(map[uint64]PageClass),
	}
}

func (f *fakeBacking) Touch(now time.Duration, addr uint64, write bool) ([]byte, time.Duration, error) {
	page := addr &^ uint64(PageSize-1)
	f.touches++
	if data, ok := f.frames[page]; ok {
		return data, now, nil
	}
	f.misses++
	if f.capacity > 0 && len(f.frames) >= f.capacity {
		victim := f.order[0]
		f.order = f.order[1:]
		delete(f.frames, victim)
		f.vm.Shootdown(victim)
	}
	data := make([]byte, PageSize)
	f.frames[page] = data
	f.order = append(f.order, page)
	return data, now + f.missLat, nil
}

func (f *fakeBacking) Discard(addr uint64) {
	page := addr &^ uint64(PageSize-1)
	if _, ok := f.frames[page]; !ok {
		return
	}
	delete(f.frames, page)
	for i, p := range f.order {
		if p == page {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	f.vm.Shootdown(page)
}

func (f *fakeBacking) ResidentPages() int { return len(f.frames) }
func (f *fakeBacking) Attach(v *VM)       { f.vm = v }
func (f *fakeBacking) SetClass(addr uint64, class PageClass) {
	f.classes[addr&^uint64(PageSize-1)] = class
}
func (f *fakeBacking) FootprintLimit() int {
	if f.capacity > 0 {
		return f.capacity
	}
	return 1 << 30
}

func newTestVM(t *testing.T, memBytes uint64, capacity int) (*VM, *fakeBacking) {
	t.Helper()
	b := newFakeBacking(capacity)
	v, err := New(Config{Name: "test", MemBytes: memBytes, PID: 100}, b)
	if err != nil {
		t.Fatal(err)
	}
	return v, b
}

func TestNewValidation(t *testing.T) {
	b := newFakeBacking(0)
	if _, err := New(Config{MemBytes: 0}, b); err == nil {
		t.Fatal("zero memory accepted")
	}
	if _, err := New(Config{MemBytes: 100}, b); err == nil {
		t.Fatal("unaligned memory accepted")
	}
	if _, err := New(Config{MemBytes: PageSize}, nil); err == nil {
		t.Fatal("nil backing accepted")
	}
}

// A negative size in MB shifted into bytes is a multiple of the page size
// whose range wraps past 2^64 from the default base or from 1 TiB: New
// refuses it rather than let a backing size a region from it.
func TestNewRejectsWrappingRange(t *testing.T) {
	for _, mb := range []int{-1, -4096} {
		for _, base := range []uint64{0, 1 << 40} {
			if _, err := New(Config{MemBytes: uint64(mb) << 20, Base: base}, newFakeBacking(0)); err == nil {
				t.Errorf("%d MB at base %#x accepted", mb, base)
			}
		}
	}
}

func TestAllocBounds(t *testing.T) {
	v, _ := newTestVM(t, 16*PageSize, 0)
	seg, err := v.Alloc("a", 8*PageSize, ClassAnon)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Pages() != 8 {
		t.Fatalf("Pages = %d", seg.Pages())
	}
	if _, err := v.Alloc("b", 9*PageSize, ClassAnon); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v", err)
	}
	if _, err := v.Alloc("c", 8*PageSize, ClassAnon); err != nil {
		t.Fatalf("exact fit rejected: %v", err)
	}
}

func TestAllocRoundsUp(t *testing.T) {
	v, _ := newTestVM(t, 16*PageSize, 0)
	seg, err := v.Alloc("odd", 100, ClassAnon)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Bytes != PageSize {
		t.Fatalf("Bytes = %d", seg.Bytes)
	}
}

func TestAllocZeroRejected(t *testing.T) {
	v, _ := newTestVM(t, 16*PageSize, 0)
	if _, err := v.Alloc("zero", 0, ClassAnon); err == nil {
		t.Fatal("zero alloc accepted")
	}
}

func TestAllocPropagatesClasses(t *testing.T) {
	v, b := newTestVM(t, 16*PageSize, 0)
	seg, err := v.Alloc("k", 2*PageSize, ClassKernel)
	if err != nil {
		t.Fatal(err)
	}
	if b.classes[seg.Start] != ClassKernel || b.classes[seg.Addr(PageSize)] != ClassKernel {
		t.Fatal("classes not propagated to class-aware backing")
	}
}

func TestTouchOutsideAllocation(t *testing.T) {
	v, _ := newTestVM(t, 16*PageSize, 0)
	if _, _, err := v.Touch(0, 0x1000, false); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("err = %v", err)
	}
	seg, _ := v.Alloc("a", PageSize, ClassAnon)
	if _, _, err := v.Touch(0, seg.End(), false); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("past-end err = %v", err)
	}
}

func TestReadWrite64RoundTrip(t *testing.T) {
	v, _ := newTestVM(t, 16*PageSize, 0)
	seg, _ := v.Alloc("data", 4*PageSize, ClassAnon)
	now, err := v.Write64(0, seg.Addr(16), 0xdeadbeefcafe)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := v.Read64(now, seg.Addr(16))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xdeadbeefcafe {
		t.Fatalf("Read64 = %#x", got)
	}
}

// TestRead64StraddleRejected: a word access that would cross a page boundary
// is refused before it reaches the backing, so it counts no access, faults
// nothing in and takes no virtual time.
func TestRead64StraddleRejected(t *testing.T) {
	v, b := newTestVM(t, 16*PageSize, 0)
	seg, _ := v.Alloc("data", 2*PageSize, ClassAnon)
	const now = time.Second
	if _, done, err := v.Read64(now, seg.Addr(PageSize-4)); err == nil || done != now {
		t.Fatalf("straddling read: done %v, err %v", done, err)
	}
	if done, err := v.Write64(now, seg.Addr(2*PageSize-1), 1); err == nil || done != now {
		t.Fatalf("straddling write: done %v, err %v", done, err)
	}
	if r, w := v.AccessCounts(); r != 0 || w != 0 {
		t.Fatalf("access counts %d/%d after refused accesses", r, w)
	}
	if v.ResidentPages() != 0 || b.touches != 0 || b.misses != 0 {
		t.Fatalf("resident %d, backing touches %d, misses %d", v.ResidentPages(), b.touches, b.misses)
	}
}

// TestTLBHoldsManyPages: pages in different TLB slots stay cached side by
// side until a Flush, and one Flush invalidates them all.
func TestTLBHoldsManyPages(t *testing.T) {
	v, b := newTestVM(t, 64*PageSize, 0)
	seg, _ := v.Alloc("data", 32*PageSize, ClassAnon)
	round := func() {
		for p := uint64(0); p < 32; p++ {
			if _, _, err := v.Touch(0, seg.Addr(p*PageSize), false); err != nil {
				t.Fatal(err)
			}
		}
	}
	round() // every first touch faults
	v.Flush()
	before := b.touches
	round() // 32 refills
	round()
	if b.touches != before+32 {
		t.Fatalf("backing touches = %d, want one per page after the warm-up", b.touches-before)
	}
	v.Flush()
	round()
	if b.touches != before+64 {
		t.Fatalf("backing touches = %d after a Flush, want 32 more", b.touches-before-32)
	}
}

// TestTLBSlotConflict: past the TLB's cap two pages share a slot and evict
// each other, and a Rebind empties the TLB even when the backing is the same.
func TestTLBSlotConflict(t *testing.T) {
	v, b := newTestVM(t, (tlbMaxEntries+1)*PageSize, 0)
	seg, _ := v.Alloc("data", (tlbMaxEntries+1)*PageSize, ClassAnon)
	if len(v.tlb) != tlbMaxEntries {
		t.Fatalf("TLB of %d entries for %d pages, want the cap %d", len(v.tlb), seg.Pages(), tlbMaxEntries)
	}
	for _, p := range []uint64{0, tlbMaxEntries, 0} {
		if _, _, err := v.Touch(0, seg.Addr(p*PageSize), false); err != nil {
			t.Fatal(err)
		}
	}
	if b.touches != 3 {
		t.Fatalf("backing touches = %d, want 3 (the pages share a slot)", b.touches)
	}
	if err := v.Rebind(b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Touch(0, seg.Start, false); err != nil {
		t.Fatal(err)
	}
	if b.touches != 4 {
		t.Fatalf("backing touches = %d, want a refill after Rebind", b.touches)
	}
}

// TestTLBCoversAllocation: the TLB is the allocation rounded up to a power of
// two, so no two allocated pages share a slot below the cap, and growing it
// in Alloc keeps every entry.
func TestTLBCoversAllocation(t *testing.T) {
	v, b := newTestVM(t, 64*PageSize, 0)
	seg, _ := v.Alloc("small", 3*PageSize, ClassAnon)
	if len(v.tlb) != 4 {
		t.Fatalf("TLB of %d entries for 3 pages, want 4", len(v.tlb))
	}
	touchAll := func(seg *Segment) {
		for p := uint64(0); p < uint64(seg.Pages()); p++ {
			if _, _, err := v.Touch(0, seg.Addr(p*PageSize), p%2 == 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	touchAll(seg)
	big, _ := v.Alloc("big", 40*PageSize, ClassAnon)
	if len(v.tlb) != 64 {
		t.Fatalf("TLB of %d entries for 43 pages, want 64", len(v.tlb))
	}
	before := b.touches
	touchAll(seg)
	if b.touches != before {
		t.Fatalf("%d backing touches after the TLB grew, want its entries kept", b.touches-before)
	}
	touchAll(big)
	touchAll(seg)
	touchAll(big)
	if b.touches != before+big.Pages() {
		t.Fatalf("backing touches = %d over 43 pages in 64 slots, want one per new page", b.touches-before)
	}
}

func TestFastPathCachesResidentPage(t *testing.T) {
	v, b := newTestVM(t, 16*PageSize, 0)
	seg, _ := v.Alloc("data", PageSize, ClassAnon)
	now := time.Duration(0)
	var err error
	if _, now, err = v.Touch(now, seg.Start, false); err != nil {
		t.Fatal(err)
	}
	before := b.touches
	for i := 0; i < 100; i++ {
		if _, now, err = v.Touch(now, seg.Addr(uint64(i*8)), false); err != nil {
			t.Fatal(err)
		}
	}
	if b.touches != before {
		t.Fatalf("fast path missed: %d extra backing touches", b.touches-before)
	}
}

func TestFastPathInvalidatedByShootdown(t *testing.T) {
	v, b := newTestVM(t, 16*PageSize, 0)
	seg, _ := v.Alloc("data", PageSize, ClassAnon)
	if _, _, err := v.Touch(0, seg.Start, false); err != nil {
		t.Fatal(err)
	}
	b.Discard(seg.Start) // drops the frame and shoots the page down
	_, _, err := v.Touch(0, seg.Start, false)
	if err != nil {
		t.Fatal(err)
	}
	if b.misses != 2 {
		t.Fatalf("misses = %d, want refault after discard", b.misses)
	}
}

func TestFastPathWriteAfterReadGoesToBacking(t *testing.T) {
	v, b := newTestVM(t, 16*PageSize, 0)
	seg, _ := v.Alloc("data", PageSize, ClassAnon)
	if _, _, err := v.Touch(0, seg.Start, false); err != nil {
		t.Fatal(err)
	}
	before := b.touches
	// First write after a read-only cache entry must consult the backing
	// (dirty tracking).
	if _, _, err := v.Touch(0, seg.Start, true); err != nil {
		t.Fatal(err)
	}
	if b.touches != before+1 {
		t.Fatalf("write bypassed the backing")
	}
	// Subsequent writes hit the cache.
	before = b.touches
	if _, _, err := v.Touch(0, seg.Start, true); err != nil {
		t.Fatal(err)
	}
	if b.touches != before {
		t.Fatal("second write missed the cache")
	}
}

func TestHotplugExtendsMemory(t *testing.T) {
	v, _ := newTestVM(t, 4*PageSize, 0)
	if _, err := v.Alloc("a", 4*PageSize, ClassAnon); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Alloc("b", PageSize, ClassAnon); err == nil {
		t.Fatal("allocation should fail before hotplug")
	}
	if err := v.Hotplug(4 * PageSize); err != nil {
		t.Fatal(err)
	}
	if v.MemBytes() != 8*PageSize {
		t.Fatalf("MemBytes = %d", v.MemBytes())
	}
	if _, err := v.Alloc("b", 4*PageSize, ClassAnon); err != nil {
		t.Fatalf("post-hotplug alloc: %v", err)
	}
}

func TestHotplugValidation(t *testing.T) {
	v, _ := newTestVM(t, 4*PageSize, 0)
	if err := v.Hotplug(0); err == nil {
		t.Fatal("zero hotplug accepted")
	}
	if err := v.Hotplug(100); err == nil {
		t.Fatal("unaligned hotplug accepted")
	}
}

func TestBootOSFootprint(t *testing.T) {
	v, b := newTestVM(t, 256*1024*PageSize, 0)
	profile := ScaledOSProfile(2000)
	os, now, err := BootOS(0, v, profile, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.ResidentPages(); got != profile.TotalPages() {
		t.Fatalf("resident = %d, want %d", got, profile.TotalPages())
	}
	if now <= 0 {
		t.Fatal("boot took no virtual time")
	}
	if os.HotPages() == 0 {
		t.Fatal("empty OS working set")
	}
	if os.HotPages() >= profile.TotalPages() {
		t.Fatal("entire OS is hot; cold pages are the point")
	}
}

func TestDefaultOSProfileMatchesPaper(t *testing.T) {
	if got := DefaultOSProfile().TotalPages(); got != 81042 {
		t.Fatalf("boot footprint = %d pages, want 81042 (Table III)", got)
	}
}

func TestScaledOSProfilePreservesMix(t *testing.T) {
	p := ScaledOSProfile(8000)
	total := p.TotalPages()
	if total < 7000 || total > 9000 {
		t.Fatalf("scaled total = %d", total)
	}
	def := DefaultOSProfile()
	defKernelFrac := float64(def.KernelPages) / float64(def.TotalPages())
	gotKernelFrac := float64(p.KernelPages) / float64(total)
	if gotKernelFrac < defKernelFrac*0.8 || gotKernelFrac > defKernelFrac*1.2 {
		t.Fatalf("kernel fraction %v, want ≈%v", gotKernelFrac, defKernelFrac)
	}
}

func TestOSTickTouchesHotPages(t *testing.T) {
	v, _ := newTestVM(t, 256*1024*PageSize, 0)
	os, now, err := BootOS(0, v, ScaledOSProfile(1000), 1)
	if err != nil {
		t.Fatal(err)
	}
	r0, w0 := v.AccessCounts()
	if _, err := os.Tick(now, 50); err != nil {
		t.Fatal(err)
	}
	if r, w := v.AccessCounts(); r+w == r0+w0 {
		t.Fatal("tick touched nothing")
	}
}

func TestBalloonReachesFloorNotBelow(t *testing.T) {
	v, b := newTestVM(t, 256*1024*PageSize, 0)
	if _, _, err := BootOS(0, v, ScaledOSProfile(40000), 1); err != nil {
		t.Fatal(err)
	}
	bal := NewBalloon(v)
	bal.FloorPages = 15000 // above the profile's unevictable minimum
	got, now := bal.InflateTo(0, 0)
	if got > 15000+1 {
		t.Fatalf("footprint after max inflate = %d, want ≈floor 15000", got)
	}
	if got < 14000 {
		t.Fatalf("footprint %d fell far below the driver floor", got)
	}
	if now <= 0 {
		t.Fatal("balloon reclaim cost no time")
	}
	_ = b
}

func TestBalloonSkipsKernelPages(t *testing.T) {
	v, b := newTestVM(t, 256*1024*PageSize, 0)
	profile := ScaledOSProfile(10000)
	if _, _, err := BootOS(0, v, profile, 1); err != nil {
		t.Fatal(err)
	}
	bal := NewBalloon(v)
	bal.FloorPages = 0 // remove the driver floor; class rules still apply
	got, _ := bal.InflateTo(0, 0)
	// Kernel + mlocked can never be ballooned away.
	min := profile.KernelPages + profile.MlockedPages
	if got < min {
		t.Fatalf("footprint %d below unevictable minimum %d", got, min)
	}
	for page := range b.frames {
		class := b.classes[page]
		if class != ClassKernel && class != ClassMlocked {
			t.Fatalf("page of class %v survived unlimited ballooning", class)
		}
	}
}

func TestProbeSucceedsWithRoomyFootprint(t *testing.T) {
	v, _ := newTestVM(t, 4096*PageSize, 1000)
	seg, _ := v.Alloc("os.file", 500*PageSize, ClassFile)
	res, _, err := Probe(0, v, seg, SSHService())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Responded || res.Deadlocked {
		t.Fatalf("probe = %+v", res)
	}
}

func TestProbeLivelocksBelowWindow(t *testing.T) {
	v, _ := newTestVM(t, 4096*PageSize, 80)
	seg, _ := v.Alloc("os.file", 500*PageSize, ClassFile)
	res, _, err := Probe(0, v, seg, SSHService())
	if err != nil {
		t.Fatal(err)
	}
	if res.Responded {
		t.Fatal("SSH responded at 80 pages; paper says it cannot")
	}
	if res.Deadlocked {
		t.Fatal("80 pages is above the KVM deadlock floor")
	}
	// ICMP still works at 80 pages (Table III).
	icmp, _, err := Probe(0, v, seg, ICMPService())
	if err != nil {
		t.Fatal(err)
	}
	if !icmp.Responded {
		t.Fatal("ICMP failed at 80 pages; paper says it responds")
	}
}

func TestProbeKVMDeadlockAtTinyFootprint(t *testing.T) {
	v, _ := newTestVM(t, 4096*PageSize, 1)
	seg, _ := v.Alloc("os.file", 500*PageSize, ClassFile)
	res, _, err := Probe(0, v, seg, ICMPService())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatal("KVM at 1 page should deadlock")
	}
}

func TestProbeFullVirtSurvivesOnePage(t *testing.T) {
	b := newFakeBacking(1)
	v, err := New(Config{Name: "fv", MemBytes: 4096 * PageSize, Virt: VirtFull}, b)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := v.Alloc("os.file", 500*PageSize, ClassFile)
	res, _, err := Probe(0, v, seg, ICMPService())
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("full virtualisation must not deadlock")
	}
	if res.Responded {
		t.Fatal("1 page cannot answer ICMP, only stay alive")
	}
}

func TestProbeSegmentTooSmall(t *testing.T) {
	v, _ := newTestVM(t, 4096*PageSize, 0)
	seg, _ := v.Alloc("tiny", 2*PageSize, ClassFile)
	if _, _, err := Probe(0, v, seg, SSHService()); err == nil {
		t.Fatal("undersized segment accepted")
	}
}

func TestPageClassStrings(t *testing.T) {
	for class, want := range map[PageClass]string{
		ClassAnon:    "anon",
		ClassFile:    "file",
		ClassKernel:  "kernel",
		ClassMlocked: "mlocked",
	} {
		if class.String() != want {
			t.Fatalf("%d.String() = %q", class, class.String())
		}
	}
}

func TestAccessCounts(t *testing.T) {
	v, _ := newTestVM(t, 16*PageSize, 0)
	seg, _ := v.Alloc("a", PageSize, ClassAnon)
	v.Touch(0, seg.Start, false)
	v.Touch(0, seg.Start, true)
	v.Touch(0, seg.Start, true)
	r, w := v.AccessCounts()
	if r != 1 || w != 2 {
		t.Fatalf("counts = %d/%d", r, w)
	}
}

// BenchmarkTouchHit is the guest's resident-page access: "hit" cycles over
// 128 pages the TLB holds side by side, "refill" alternates two pages that
// share a TLB slot, so every access is a backing hit that refills the slot.
func BenchmarkTouchHit(b *testing.B) {
	for _, bc := range []struct {
		name   string
		stride uint64 // pages between consecutive accesses
		pages  uint64
	}{{"hit", 1, 128}, {"refill", tlbMaxEntries, 2}} {
		b.Run(bc.name, func(b *testing.B) {
			v, err := New(Config{Name: "bench", MemBytes: 2 * tlbMaxEntries * PageSize}, newFakeBacking(0))
			if err != nil {
				b.Fatal(err)
			}
			seg, err := v.Alloc("data", 2*tlbMaxEntries*PageSize, ClassAnon)
			if err != nil {
				b.Fatal(err)
			}
			addr := func(i int) uint64 { return seg.Addr(uint64(i) % bc.pages * bc.stride * PageSize) }
			for i := 0; i < int(bc.pages); i++ {
				if _, _, err := v.Touch(0, addr(i), false); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := v.Touch(0, addr(i), false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
