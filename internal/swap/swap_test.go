package swap

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"fluidmem/internal/blockdev"
	"fluidmem/internal/vm"
)

func newSubsystem(t testing.TB, frames int, kind blockdev.Kind) *Subsystem {
	t.Helper()
	var params blockdev.Params
	switch kind {
	case blockdev.KindPmem:
		params = blockdev.PmemParams(1 << 30)
	case blockdev.KindNVMeoF:
		params = blockdev.NVMeoFParams(1 << 30)
	default:
		params = blockdev.SSDParams(1 << 30)
	}
	swapDev, err := blockdev.New(params, 1)
	if err != nil {
		t.Fatal(err)
	}
	fsDev, err := blockdev.New(blockdev.SSDParams(4<<30), 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(DefaultParams(frames), swapDev, fsDev, 3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const base = 0x10000000

// pagesWhere lists, in slab order, the addresses of the pages whose record
// satisfies keep.
func (s *Subsystem) pagesWhere(keep func(p *page) bool) []uint64 {
	var addrs []uint64
	for i := 1; i < len(s.pages); i++ {
		if keep(&s.pages[i]) {
			addrs = append(addrs, s.pages[i].addr)
		}
	}
	return addrs
}

// resident reports whether the page at addr holds a frame.
func (s *Subsystem) resident(addr uint64) bool {
	return s.pages[s.record(align(addr), false)].data != nil
}

func isResident(p *page) bool { return p.data != nil }
func isSwapped(p *page) bool  { return p.slot != 0 }

func addr(i int) uint64 { return base + uint64(i)*PageSize }

func TestMinorFaultZeroFill(t *testing.T) {
	s := newSubsystem(t, 16, blockdev.KindPmem)
	data, done, err := s.Touch(0, addr(0), false)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("minor fault cost nothing")
	}
	if !bytes.Equal(data, make([]byte, PageSize)) {
		t.Fatal("fresh page not zero-filled")
	}
	if s.Stats().MinorFaults != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestResidentHitIsFree(t *testing.T) {
	s := newSubsystem(t, 16, blockdev.KindPmem)
	if _, _, err := s.Touch(0, addr(0), true); err != nil {
		t.Fatal(err)
	}
	_, done, err := s.Touch(time.Second, addr(0), false)
	if err != nil {
		t.Fatal(err)
	}
	if done != time.Second {
		t.Fatalf("hit cost %v", done-time.Second)
	}
}

func TestSwapOutAndMajorFaultRoundTrip(t *testing.T) {
	s := newSubsystem(t, 4, blockdev.KindPmem)
	// Fill frame 0 with a pattern, then evict it by filling the rest.
	data, now, err := s.Touch(0, addr(0), true)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, bytes.Repeat([]byte{0xAB}, PageSize))
	for i := 1; i < 12; i++ {
		if _, now, err = s.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().SwapOuts == 0 {
		t.Fatal("nothing swapped out under pressure")
	}
	if s.ResidentPages() > 4 {
		t.Fatalf("resident = %d > capacity 4", s.ResidentPages())
	}
	// Page 0 must come back from swap with its contents.
	got, done, err := s.Touch(now, addr(0), false)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB || got[PageSize-1] != 0xAB {
		t.Fatal("swap round trip corrupted page")
	}
	if done <= now {
		t.Fatal("major fault cost nothing")
	}
	if s.Stats().MajorFaults == 0 {
		t.Fatal("major fault not counted")
	}
}

func TestKernelPagesUnevictable(t *testing.T) {
	s := newSubsystem(t, 8, blockdev.KindPmem)
	// 6 kernel pages + churn of anon pages: kernel pages must stay resident.
	for i := 0; i < 6; i++ {
		s.SetClass(addr(i), vm.ClassKernel)
	}
	now := time.Duration(0)
	var err error
	for i := 0; i < 6; i++ {
		if _, now, err = s.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	for i := 100; i < 140; i++ {
		if _, now, err = s.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if !s.resident(addr(i)) {
			t.Fatalf("kernel page %d was evicted", i)
		}
	}
	if s.Stats().SwapOuts == 0 {
		t.Fatal("anon churn should have caused swap-outs")
	}
}

func TestMlockedPagesUnevictable(t *testing.T) {
	s := newSubsystem(t, 4, blockdev.KindPmem)
	s.SetClass(addr(0), vm.ClassMlocked)
	now := time.Duration(0)
	var err error
	if _, now, err = s.Touch(now, addr(0), true); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		if _, now, err = s.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	if !s.resident(addr(0)) {
		t.Fatal("mlocked page evicted")
	}
}

func TestAllUnevictableOOMs(t *testing.T) {
	s := newSubsystem(t, 4, blockdev.KindPmem)
	for i := 0; i < 8; i++ {
		s.SetClass(addr(i), vm.ClassKernel)
	}
	now := time.Duration(0)
	var err error
	sawOOM := false
	for i := 0; i < 8; i++ {
		if _, now, err = s.Touch(now, addr(i), true); err != nil {
			if !errors.Is(err, ErrOOM) {
				t.Fatalf("err = %v", err)
			}
			sawOOM = true
			break
		}
	}
	if !sawOOM {
		t.Fatal("over-committed unevictable memory did not OOM")
	}
}

func TestFilePagesGoToFilesystemNotSwap(t *testing.T) {
	s := newSubsystem(t, 4, blockdev.KindPmem)
	for i := 0; i < 4; i++ {
		s.SetClass(addr(i), vm.ClassFile)
	}
	now := time.Duration(0)
	var err error
	var data []byte
	if data, now, err = s.Touch(now, addr(0), true); err != nil {
		t.Fatal(err)
	}
	copy(data, bytes.Repeat([]byte{0x3C}, PageSize))
	// Evict with anon churn.
	for i := 10; i < 30; i++ {
		if _, now, err = s.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.FileWrites == 0 {
		t.Fatal("dirty file page never written back to the filesystem")
	}
	// Refill must come from the filesystem with intact contents.
	got, _, err := s.Touch(now, addr(0), false)
	if err != nil {
		t.Fatal(err)
	}
	if got[100] != 0x3C {
		t.Fatal("file refill corrupted page")
	}
	if s.Stats().FileRefills == 0 {
		t.Fatal("file refill not counted")
	}
}

func TestSecondChanceKeepsHotPages(t *testing.T) {
	// A hot page touched between every insertion should survive pressure
	// thanks to the referenced bit, while one-shot pages get evicted.
	s := newSubsystem(t, 8, blockdev.KindPmem)
	now := time.Duration(0)
	var err error
	hot := addr(0)
	if _, now, err = s.Touch(now, hot, true); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 60; i++ {
		if _, now, err = s.Touch(now, hot, false); err != nil {
			t.Fatal(err)
		}
		if _, now, err = s.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	if !s.resident(hot) {
		t.Fatal("hot page evicted despite constant touches")
	}
}

func TestSwapFull(t *testing.T) {
	swapDev, err := blockdev.New(blockdev.PmemParams(4*PageSize), 1) // 4 slots
	if err != nil {
		t.Fatal(err)
	}
	fsDev, err := blockdev.New(blockdev.SSDParams(1<<30), 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(DefaultParams(4), swapDev, fsDev, 3)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	sawFull := false
	for i := 0; i < 64; i++ {
		if _, now, err = s.Touch(now, addr(i), true); err != nil {
			if !errors.Is(err, ErrSwapFull) {
				t.Fatalf("err = %v", err)
			}
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("tiny swap device never filled")
	}
}

func TestSwapSlotReusedAfterSwapIn(t *testing.T) {
	s := newSubsystem(t, 2, blockdev.KindPmem)
	now := time.Duration(0)
	var err error
	// Cycle pages through swap repeatedly; slot count must not leak.
	for round := 0; round < 20; round++ {
		for i := 0; i < 4; i++ {
			if _, now, err = s.Touch(now, addr(i), true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.nextSlot > 16 {
		t.Fatalf("slot high-water mark %d: slots leak", s.nextSlot)
	}
}

func TestDiscardFreesFrameAndSlot(t *testing.T) {
	s := newSubsystem(t, 2, blockdev.KindPmem)
	now := time.Duration(0)
	var err error
	for i := 0; i < 4; i++ {
		if _, now, err = s.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	resident := s.ResidentPages()
	slots := len(s.pagesWhere(isSwapped))
	if slots == 0 {
		t.Fatal("setup: nothing swapped")
	}
	// Discard one resident and one swapped page.
	s.Discard(s.pagesWhere(isResident)[0])
	s.Discard(s.pagesWhere(isSwapped)[0])
	if s.ResidentPages() != resident-1 {
		t.Fatalf("resident = %d", s.ResidentPages())
	}
	if got := len(s.pagesWhere(isSwapped)); got != slots-1 {
		t.Fatalf("swapped pages = %d", got)
	}
}

// flushCounter counts the TLB flushes a backing pushes.
type flushCounter int

func (c *flushCounter) Flush() { *c++ }

// TestEpochBumpsOnResidencyChange pins swap's side of the vm.Backing
// contract: the attached TLB is flushed on a fault, and on a hit too,
// because a hit's referenced-bit bookkeeping is state the VM's TLB must not
// skip.
func TestEpochBumpsOnResidencyChange(t *testing.T) {
	s := newSubsystem(t, 2, blockdev.KindPmem)
	var flushes flushCounter
	s.tlb = &flushes
	if _, _, err := s.Touch(0, addr(0), true); err != nil {
		t.Fatal(err)
	}
	if flushes != 1 {
		t.Fatalf("%d flushes on a fault, want 1", flushes)
	}
	if _, _, err := s.Touch(0, addr(0), false); err != nil {
		t.Fatal(err)
	}
	if flushes != 2 {
		t.Fatalf("%d flushes after a hit, want 2", flushes)
	}
}

func TestDeviceLatencyOrderingVisible(t *testing.T) {
	// Swap-in cost must track the device: pmem < nvmeof < ssd.
	avgMajor := func(kind blockdev.Kind) time.Duration {
		s := newSubsystem(t, 4, kind)
		now := time.Duration(0)
		var err error
		// Prime: 12 anon pages cycling through 4 frames.
		for i := 0; i < 12; i++ {
			if _, now, err = s.Touch(now, addr(i), true); err != nil {
				t.Fatal(err)
			}
		}
		var total time.Duration
		var count int
		for round := 0; round < 30; round++ {
			for i := 0; i < 12; i++ {
				before := s.Stats().MajorFaults
				start := now
				if _, now, err = s.Touch(now, addr(i), false); err != nil {
					t.Fatal(err)
				}
				if s.Stats().MajorFaults > before {
					total += now - start
					count++
				}
				now += 100 * time.Microsecond // think time drains queues
			}
		}
		if count == 0 {
			t.Fatal("no major faults measured")
		}
		return total / time.Duration(count)
	}
	pmem := avgMajor(blockdev.KindPmem)
	nvme := avgMajor(blockdev.KindNVMeoF)
	ssd := avgMajor(blockdev.KindSSD)
	if !(pmem < nvme && nvme < ssd) {
		t.Fatalf("major fault ordering violated: pmem=%v nvmeof=%v ssd=%v", pmem, nvme, ssd)
	}
	// Sanity: the software path keeps even pmem swap-ins tens of µs.
	if pmem < 20*time.Microsecond || pmem > 50*time.Microsecond {
		t.Fatalf("pmem swap-in = %v, want ≈30µs kernel path", pmem)
	}
}

func TestValidation(t *testing.T) {
	swapDev, _ := blockdev.New(blockdev.PmemParams(1<<30), 1)
	fsDev, _ := blockdev.New(blockdev.SSDParams(1<<30), 2)
	if _, err := New(DefaultParams(0), swapDev, fsDev, 1); err == nil {
		t.Fatal("zero frames accepted")
	}
	if _, err := New(DefaultParams(4), nil, fsDev, 1); err == nil {
		t.Fatal("nil swap device accepted")
	}
	if _, err := New(DefaultParams(4), swapDev, nil, 1); err == nil {
		t.Fatal("nil fs device accepted")
	}
}

// TestRecordFindsEveryPage makes records for pages at both ends of a chunk of
// the index, 256 pages apart, in neighbouring chunks and far apart, and
// checks that each finds its own record again, and that a page never recorded
// finds the nil record.
func TestRecordFindsEveryPage(t *testing.T) {
	s := newSubsystem(t, 4, blockdev.KindPmem)
	pages := []int{0, 1, 255, 256, 511, 512, 513, 768, 1023, 1 << 20, 1<<20 + 256}
	for k, page := range pages {
		if i := s.record(addr(page), true); i != uint32(k+1) || s.pages[i].addr != addr(page) {
			t.Fatalf("page %d: record %d (addr %#x), want %d", page, i, s.pages[i].addr, k+1)
		}
	}
	for k, page := range pages {
		if i, j := s.record(addr(page), false), s.record(addr(page), true); i != uint32(k+1) || j != i {
			t.Fatalf("page %d: found record %d, then %d; want %d", page, i, j, k+1)
		}
	}
	for _, page := range []int{2, 257, 514, 1 << 19, 1<<20 + 1} {
		if i := s.record(addr(page), false); i != 0 {
			t.Fatalf("unrecorded page %d found record %d", page, i)
		}
	}
	if len(s.pages) != len(pages)+1 {
		t.Fatalf("%d records for %d pages", len(s.pages)-1, len(pages))
	}
}
