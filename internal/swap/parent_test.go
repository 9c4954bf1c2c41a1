package swap

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"fluidmem/internal/blockdev"
	"fluidmem/internal/clock"
	"fluidmem/internal/ilist"
	"fluidmem/internal/vm"
)

// parentSubsystem is the Subsystem as it stood while a page's state was
// spread over four maps, one heap frame and one container/list element per
// resident page: the reference the one-record slab is held to, op for op.
// Copied with the types renamed, New renamed newParent, and the interface
// assertions, FootprintLimit and Attach dropped.
// parentFrame is one resident page.
type parentFrame struct {
	addr       uint64
	data       []byte
	class      vm.PageClass
	dirty      bool
	referenced bool
	active     bool
	elem       *list.Element
}

type parentSubsystem struct {
	params  Params
	swapDev *blockdev.Device
	fsDev   *blockdev.Device
	rng     *clock.Rand

	frames   map[uint64]*parentFrame
	active   *list.List // front = oldest
	inactive *list.List

	classes   map[uint64]vm.PageClass
	swapSlots map[uint64]uint64 // page addr → swap slot (page still out there)
	freeSlots []uint64
	nextSlot  uint64
	fsBlocks  map[uint64]uint64 // file page addr → fs block
	nextBlock uint64

	tlb   interface{ Flush() } // the attached VM (nil before Attach)
	stats Stats
}

func newParent(p Params, swapDev, fsDev *blockdev.Device, seed uint64) (*parentSubsystem, error) {
	if p.FramePages <= 0 {
		return nil, fmt.Errorf("swap: FramePages = %d", p.FramePages)
	}
	if swapDev == nil || fsDev == nil {
		return nil, errors.New("swap: nil device")
	}
	if p.ReclaimBatch <= 0 {
		p.ReclaimBatch = 32
	}
	return &parentSubsystem{
		params:    p,
		swapDev:   swapDev,
		fsDev:     fsDev,
		rng:       clock.NewRand(seed),
		frames:    make(map[uint64]*parentFrame),
		active:    list.New(),
		inactive:  list.New(),
		classes:   make(map[uint64]vm.PageClass),
		swapSlots: make(map[uint64]uint64),
		fsBlocks:  make(map[uint64]uint64),
	}, nil
}

// SetClass implements vm.ClassAware.
func (s *parentSubsystem) SetClass(addr uint64, class vm.PageClass) {
	s.classes[align(addr)] = class
}

// ResidentPages implements vm.Backing.
func (s *parentSubsystem) ResidentPages() int { return len(s.frames) }

func (s *parentSubsystem) flush() {
	if s.tlb != nil {
		s.tlb.Flush()
	}
}

// Stats returns a snapshot of activity counters.
func (s *parentSubsystem) Stats() Stats { return s.stats }

// Touch implements vm.Backing: the guest accesses addr.
func (s *parentSubsystem) Touch(now time.Duration, addr uint64, write bool) ([]byte, time.Duration, error) {
	page := align(addr)
	if f, ok := s.frames[page]; ok {
		// Resident: referenced-bit bookkeeping only (hardware-speed hit).
		// The bookkeeping is state, so a hit flushes the TLB too: the VM
		// may skip only a repeat of this very access.
		if f.referenced && !f.active {
			s.promote(f)
		}
		f.referenced = true
		if write {
			f.dirty = true
		}
		s.flush()
		return f.data, now, nil
	}

	// Fault. Secure a frame first (may reclaim).
	var err error
	if now, err = s.ensureFrame(now); err != nil {
		return nil, now, err
	}

	f := &parentFrame{addr: page, class: s.classOf(page), dirty: write, referenced: false}
	switch {
	case s.swapSlots[page] != 0:
		// Major fault: swap-in through the block layer.
		s.stats.MajorFaults++
		slot := s.swapSlots[page] - 1
		now += s.params.KernelFault.Sample(s.rng)
		now += s.params.SwapCache.Sample(s.rng)
		now += s.params.BlockLayer.Sample(s.rng)
		var data []byte
		data, now, err = s.swapDev.ReadPage(now, slot)
		if err != nil {
			return nil, now, fmt.Errorf("swap-in %#x: %w", page, err)
		}
		now += s.params.PageCopy.Sample(s.rng)
		now += s.params.LRUBookkeeping.Sample(s.rng)
		f.data = data
		// The slot is freed on swap-in (no swap cache retention modelled).
		delete(s.swapSlots, page)
		s.freeSlots = append(s.freeSlots, slot)
	case s.fsBlocks[page] != 0:
		// File-backed refill from the filesystem.
		s.stats.FileRefills++
		block := s.fsBlocks[page] - 1
		now += s.params.KernelFault.Sample(s.rng)
		now += s.params.BlockLayer.Sample(s.rng)
		var data []byte
		data, now, err = s.fsDev.ReadPage(now, block)
		if err != nil {
			return nil, now, fmt.Errorf("file refill %#x: %w", page, err)
		}
		now += s.params.PageCopy.Sample(s.rng)
		now += s.params.LRUBookkeeping.Sample(s.rng)
		f.data = data
	default:
		// Minor fault: first touch, zero-fill.
		s.stats.MinorFaults++
		now += s.params.MinorFault.Sample(s.rng)
		f.data = make([]byte, PageSize)
	}

	s.frames[page] = f
	f.elem = s.inactive.PushBack(f)
	s.flush()
	return f.data, now, nil
}

// Discard implements vm.Backing (balloon-freed pages).
func (s *parentSubsystem) Discard(addr uint64) {
	page := align(addr)
	if f, ok := s.frames[page]; ok {
		s.unlink(f)
		delete(s.frames, page)
		s.flush()
	}
	if slot, ok := s.swapSlots[page]; ok {
		s.freeSlots = append(s.freeSlots, slot-1)
		delete(s.swapSlots, page)
	}
}

// ensureFrame guarantees a free frame exists, reclaiming a batch if needed.
func (s *parentSubsystem) ensureFrame(now time.Duration) (time.Duration, error) {
	if len(s.frames) < s.params.FramePages {
		return now, nil
	}
	return s.reclaim(now, s.params.ReclaimBatch)
}

// reclaim evicts up to batch frames using second-chance scanning of the
// inactive list, aging the active list as needed. Swap-out writes are
// asynchronous: they occupy the device but stall the caller only when the
// device falls further behind than ThrottleDepth (writeback throttling).
func (s *parentSubsystem) reclaim(now time.Duration, batch int) (time.Duration, error) {
	s.stats.Reclaims++
	freed := 0
	// Age the active list so the inactive list has candidates.
	s.rebalance()
	scanBudget := 4 * s.params.FramePages // prevents livelock on unevictable sets
	for freed < batch && scanBudget > 0 {
		elem := s.inactive.Front()
		if elem == nil {
			s.rebalance()
			if s.inactive.Len() == 0 {
				break
			}
			continue
		}
		scanBudget--
		s.stats.Scanned++
		now += s.params.ScanCost
		f := elem.Value.(*parentFrame)
		if f.referenced {
			// Second chance: clear and promote.
			f.referenced = false
			s.promote(f)
			continue
		}
		if !s.evictable(f) {
			// Unevictable pages rotate back to the active list.
			s.promote(f)
			continue
		}
		var err error
		now, err = s.evict(now, f)
		if err != nil {
			return now, err
		}
		freed++
	}
	if freed == 0 {
		return now, fmt.Errorf("%w: %d resident, all unevictable or referenced", ErrOOM, len(s.frames))
	}
	return now, nil
}

// evictable applies the class rules — the heart of *partial* disaggregation.
func (s *parentSubsystem) evictable(f *parentFrame) bool {
	switch f.class {
	case vm.ClassKernel, vm.ClassMlocked:
		return false
	default:
		return true
	}
}

// evict removes f from DRAM, writing it out as its class requires.
func (s *parentSubsystem) evict(now time.Duration, f *parentFrame) (time.Duration, error) {
	switch f.class {
	case vm.ClassAnon:
		slot, ok := s.allocSlot()
		if !ok {
			return now, ErrSwapFull
		}
		s.stats.SwapOuts++
		// Asynchronous writeback: the write rides the device's background
		// channel (kswapd) and enters the fault critical path only through
		// writeback throttling when that channel falls too far behind.
		done, err := s.swapDev.WritePageAsync(now, slot, f.data)
		if err != nil {
			return now, fmt.Errorf("swap-out %#x: %w", f.addr, err)
		}
		if lag := done - now; lag > s.params.ThrottleDepth {
			s.stats.Throttles++
			now = done - s.params.ThrottleDepth
		}
		s.swapSlots[f.addr] = slot + 1
	case vm.ClassFile:
		if f.dirty {
			block := s.allocBlock(f.addr)
			s.stats.FileWrites++
			done, err := s.fsDev.WritePageAsync(now, block, f.data)
			if err != nil {
				return now, fmt.Errorf("file writeback %#x: %w", f.addr, err)
			}
			if lag := done - now; lag > s.params.ThrottleDepth {
				s.stats.Throttles++
				now = done - s.params.ThrottleDepth
			}
		} else if _, onDisk := s.fsBlocks[f.addr]; !onDisk {
			// A clean file page with no disk copy yet (first eviction of a
			// boot-warmed page): it must be written once to be refillable.
			block := s.allocBlock(f.addr)
			s.stats.FileWrites++
			if _, err := s.fsDev.WritePageAsync(now, block, f.data); err != nil {
				return now, fmt.Errorf("file writeback %#x: %w", f.addr, err)
			}
		} else {
			s.stats.DroppedFile++
		}
	}
	s.unlink(f)
	delete(s.frames, f.addr)
	s.flush()
	return now, nil
}

// rebalance moves pages from the active front to the inactive tail until the
// inactive list holds at least a third of resident pages.
func (s *parentSubsystem) rebalance() {
	target := len(s.frames) / 3
	for s.inactive.Len() < target {
		elem := s.active.Front()
		if elem == nil {
			return
		}
		f := elem.Value.(*parentFrame)
		s.active.Remove(elem)
		f.active = false
		f.referenced = false
		f.elem = s.inactive.PushBack(f)
	}
}

func (s *parentSubsystem) promote(f *parentFrame) {
	if f.active {
		return
	}
	s.inactive.Remove(f.elem)
	f.active = true
	f.elem = s.active.PushBack(f)
}

func (s *parentSubsystem) unlink(f *parentFrame) {
	if f.active {
		s.active.Remove(f.elem)
	} else {
		s.inactive.Remove(f.elem)
	}
}

func (s *parentSubsystem) allocSlot() (uint64, bool) {
	if n := len(s.freeSlots); n > 0 {
		slot := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		return slot, true
	}
	if s.nextSlot >= s.swapDev.Pages() {
		return 0, false
	}
	slot := s.nextSlot
	s.nextSlot++
	return slot, true
}

func (s *parentSubsystem) allocBlock(page uint64) uint64 {
	if b, ok := s.fsBlocks[page]; ok {
		return b - 1
	}
	block := s.nextBlock
	s.nextBlock++
	s.fsBlocks[page] = block + 1
	return block
}

func (s *parentSubsystem) classOf(page uint64) vm.PageClass {
	if c, ok := s.classes[page]; ok {
		return c
	}
	return vm.ClassAnon
}

// swapPair runs a Subsystem and the parent's in lockstep, each over its own
// devices built from the same seeds, each flushing its own counter.
type swapPair struct {
	s              *Subsystem
	parent         *parentSubsystem
	flush, pflush  flushCounter
	now            time.Duration
	pages          int
	step           uint64
	majors         uint64
	swapFull, ooms int
}

func newSwapPair(t testing.TB, frames, batch, swapPages, pages int, seed uint64) *swapPair {
	t.Helper()
	devices := func() (swapDev, fsDev *blockdev.Device) {
		var err error
		if swapDev, err = blockdev.New(blockdev.NVMeoFParams(uint64(swapPages)*PageSize), seed); err != nil {
			t.Fatal(err)
		}
		if fsDev, err = blockdev.New(blockdev.SSDParams(uint64(pages)*PageSize), seed+1); err != nil {
			t.Fatal(err)
		}
		return swapDev, fsDev
	}
	p := DefaultParams(frames)
	p.ReclaimBatch = batch
	pair := &swapPair{pages: pages}
	var err error
	swapDev, fsDev := devices()
	if pair.s, err = New(p, swapDev, fsDev, seed+2); err != nil {
		t.Fatal(err)
	}
	swapDev, fsDev = devices()
	if pair.parent, err = newParent(p, swapDev, fsDev, seed+2); err != nil {
		t.Fatal(err)
	}
	pair.s.tlb, pair.parent.tlb = &pair.flush, &pair.pflush
	return pair
}

// addr places the pair's pages 509 pages apart, so they fall in different
// chunks of the index and at different offsets within them.
func (g *swapPair) addr(page int) uint64 { return base + uint64(page)*509*PageSize }

// op applies one op to both subsystems: a read Touch (kind 0), a write Touch
// that then stamps the page (1), a SetClass re-tag (2) or a Discard (3). It
// fails the test at the first difference in returned bytes, done time,
// error, Stats, ResidentPages or Flush count, or in the state behind them:
// the order of both LRU lists, and every page's swap slot and file block.
func (g *swapPair) op(t testing.TB, kind int, page int, class vm.PageClass) {
	t.Helper()
	g.step++
	addr := g.addr(page)
	switch kind {
	case 0, 1:
		write := kind == 1
		data, done, err := g.s.Touch(g.now, addr, write)
		pdata, pdone, perr := g.parent.Touch(g.now, addr, write)
		if !bytes.Equal(data, pdata) || done != pdone || fmt.Sprint(err) != fmt.Sprint(perr) {
			t.Fatalf("op %d: Touch(%#x, write %v) = %d bytes, %v, %v; parent %d bytes, %v, %v",
				g.step, addr, write, len(data), done, err, len(pdata), pdone, perr)
		}
		switch {
		case errors.Is(err, ErrSwapFull):
			g.swapFull++
		case errors.Is(err, ErrOOM):
			g.ooms++
		case err == nil:
			g.now = done
			if write {
				binary.LittleEndian.PutUint64(data[8*(page%(PageSize/8)):], g.step)
				binary.LittleEndian.PutUint64(pdata[8*(page%(PageSize/8)):], g.step)
			}
		}
	case 2:
		g.s.SetClass(addr, class)
		g.parent.SetClass(addr, class)
	default:
		g.s.Discard(addr)
		g.parent.Discard(addr)
	}
	if st, pst := g.s.Stats(), g.parent.Stats(); st != pst {
		t.Fatalf("op %d: stats %+v, parent %+v", g.step, st, pst)
	}
	if r, pr := g.s.ResidentPages(), g.parent.ResidentPages(); r != pr {
		t.Fatalf("op %d: %d resident, parent %d", g.step, r, pr)
	}
	if g.flush != g.pflush {
		t.Fatalf("op %d: %d flushes, parent %d", g.step, g.flush, g.pflush)
	}
	g.majors = g.s.Stats().MajorFaults
	for _, l := range []struct {
		name   string
		list   ilist.List
		parent *list.List
	}{{"active", g.s.active, g.parent.active}, {"inactive", g.s.inactive, g.parent.inactive}} {
		var got, want []uint64
		for i := l.list.Head; i != 0; i = g.s.links[i].Next {
			got = append(got, g.s.pages[i].addr)
		}
		for e := l.parent.Front(); e != nil; e = e.Next() {
			want = append(want, e.Value.(*parentFrame).addr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("op %d: %s list %#x, parent %#x", g.step, l.name, got, want)
		}
	}
	for page := 0; page < g.pages; page++ {
		addr := g.addr(page)
		slot, block := g.s.pages[g.s.record(addr, false)].slot, g.s.pages[g.s.record(addr, false)].block
		if pslot, pblock := g.parent.swapSlots[addr], g.parent.fsBlocks[addr]; slot != pslot || block != pblock {
			t.Fatalf("op %d: page %#x slot+1 %d block+1 %d, parent %d %d", g.step, addr, slot, block, pslot, pblock)
		}
	}
}

// TestSwapMatchesParent drives the one-record slab and the parent's maps and
// container/lists in lockstep through seeded random reads, writes, class
// re-tags over all four classes and discards, over three times as many
// pages as frames, at every combination of frame count, reclaim batch and
// swap size below. The small swap devices run full and the small frame
// counts fill with unevictable pages, so ErrSwapFull and ErrOOM must both
// come up, besides swap-ins.
func TestSwapMatchesParent(t *testing.T) {
	var majors uint64
	var swapFull, ooms int
	for _, frames := range []int{1, 4, 16} {
		for _, batch := range []int{1, 4, 32} {
			for _, swapPages := range []int{2, 16, 256} {
				pages := 3 * frames
				g := newSwapPair(t, frames, batch, swapPages, pages, uint64(frames*1000+batch*10+swapPages))
				rng := rand.New(rand.NewSource(int64(frames + batch + swapPages)))
				for step := 0; step < 3000; step++ {
					kind := 0
					switch r := rng.Intn(20); {
					case r < 9:
					case r < 16:
						kind = 1
					case r < 18:
						kind = 2
					default:
						kind = 3
					}
					g.op(t, kind, rng.Intn(pages), vm.ClassAnon+vm.PageClass(rng.Intn(4)))
				}
				majors += g.majors
				swapFull += g.swapFull
				ooms += g.ooms
			}
		}
	}
	if majors == 0 || swapFull == 0 || ooms == 0 {
		t.Fatalf("ops never reached every path: %d swap-ins, %d ErrSwapFull, %d ErrOOM", majors, swapFull, ooms)
	}
}

// FuzzSwapMatchesParent is TestSwapMatchesParent under the fuzzer: the
// stream's first three bytes pick the frame count, the reclaim batch and the
// swap size, and every three bytes after them are one op, its page and the
// class of a re-tag.
func FuzzSwapMatchesParent(f *testing.F) {
	f.Add([]byte{3, 0, 1, 3, 0, 0, 3, 1, 0, 3, 2, 0, 3, 3, 0, 3, 4, 0, 0, 0, 0, 0, 5, 0, 7, 1, 0})
	f.Add([]byte{0, 0, 0, 5, 0, 2, 3, 1, 0, 3, 2, 0, 5, 1, 1, 3, 3, 0})
	f.Add(make([]byte, 96))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		frames, batch, swapPages := 1+int(data[0]%16), 1+int(data[1]%8), 1+int(data[2]%32)
		pages := 3 * frames
		g := newSwapPair(t, frames, batch, swapPages, pages, 7)
		for data = data[3:]; len(data) >= 3; data = data[3:] {
			// Reads 3 in 8, writes 2 in 8, re-tags 2 in 8, discards 1 in 8.
			kind := [8]int{0, 0, 0, 1, 1, 2, 2, 3}[data[0]%8]
			g.op(t, kind, int(data[1])%pages, vm.ClassAnon+vm.PageClass(data[2]%4))
		}
	})
}
