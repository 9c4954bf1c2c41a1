// Package swap simulates the guest kernel's swap subsystem — the mechanism
// behind swap-based (partial) memory disaggregation systems like Infiniswap
// and NVMeoF remote swap that the paper compares against (§II, §VI).
//
// The model captures the properties the comparison hinges on:
//
//   - Only anonymous pages go to swap. File-backed pages are written back to
//     the filesystem, and kernel/mlocked pages are unevictable — so roughly
//     a third of the guest OS footprint is pinned in DRAM no matter how cold
//     it is (the Figure 4b effect).
//   - Victim selection uses active/inactive lists with referenced bits
//     (second chance), which tracks the working set *better* than FluidMem's
//     insertion-ordered LRU — the reason swap-to-DRAM edges ahead at scale
//     factors 22–23 (§VI-D1).
//   - A swap-in traverses the kernel block layer: swap-cache lookup, bio
//     submission, device service time, completion interrupt, and a page
//     copy — the multi-layer path whose latency FluidMem's user-space
//     handler undercuts (§V-B zero-copy discussion).
//   - Swap-out writeback is asynchronous (kswapd), entering the fault
//     critical path only through writeback throttling when the device
//     queue grows too deep.
package swap

import (
	"container/list"
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/blockdev"
	"fluidmem/internal/clock"
	"fluidmem/internal/vm"
)

// PageSize is the page granularity.
const PageSize = 4096

// Errors.
var (
	// ErrOOM reports that reclaim found nothing evictable: the guest OOMs.
	ErrOOM = errors.New("swap: out of memory, nothing evictable")
	// ErrSwapFull reports exhausted swap space.
	ErrSwapFull = errors.New("swap: swap device full")
)

// Params configures the subsystem.
type Params struct {
	// FramePages is the VM's local DRAM capacity in pages (the paper's
	// swap VMs have 1 GB local).
	FramePages int
	// MinorFault is the cost of a first-touch zero-fill fault.
	MinorFault clock.LatencyModel
	// KernelFault is fault entry/exit plus fault-path bookkeeping.
	KernelFault clock.LatencyModel
	// SwapCache is swap-cache lookup and insertion.
	SwapCache clock.LatencyModel
	// BlockLayer is bio submission plus completion handling for one I/O.
	BlockLayer clock.LatencyModel
	// PageCopy is copying the page between the block buffer and the frame —
	// the copy FluidMem's remap avoids.
	PageCopy clock.LatencyModel
	// LRUBookkeeping is list/PTE maintenance per fault.
	LRUBookkeeping clock.LatencyModel
	// ReclaimBatch is how many frames kswapd reclaims per pressure episode.
	ReclaimBatch int
	// ScanCost is the CPU cost of scanning one page during reclaim.
	ScanCost time.Duration
	// ThrottleDepth is how far the swap device may run behind before
	// writeback throttling stalls the faulting path.
	ThrottleDepth time.Duration
}

// DefaultParams returns the kernel-path costs calibrated so the Figure 3
// swap averages land near the paper's (26.34 µs DRAM / 41.73 µs NVMeoF /
// 106.56 µs SSD with a 4 GB WSS over 1 GB DRAM).
func DefaultParams(framePages int) Params {
	return Params{
		FramePages:     framePages,
		MinorFault:     clock.LatencyModel{Base: 3500 * time.Nanosecond, Jitter: 500 * time.Nanosecond},
		KernelFault:    clock.LatencyModel{Base: 5 * time.Microsecond, Jitter: 700 * time.Nanosecond},
		SwapCache:      clock.LatencyModel{Base: 3 * time.Microsecond, Jitter: 400 * time.Nanosecond},
		BlockLayer:     clock.LatencyModel{Base: 14 * time.Microsecond, Jitter: 1500 * time.Nanosecond, TailProb: 0.005, TailExtra: 120 * time.Microsecond},
		PageCopy:       clock.LatencyModel{Base: 2500 * time.Nanosecond, Jitter: 300 * time.Nanosecond},
		LRUBookkeeping: clock.LatencyModel{Base: 5500 * time.Nanosecond, Jitter: 500 * time.Nanosecond},
		ReclaimBatch:   32,
		ScanCost:       400 * time.Nanosecond,
		ThrottleDepth:  4 * time.Millisecond,
	}
}

// Stats counts subsystem activity.
type Stats struct {
	MinorFaults uint64
	MajorFaults uint64 // swap-ins
	FileRefills uint64 // file-backed pages re-read from the filesystem
	SwapOuts    uint64
	FileWrites  uint64
	DroppedFile uint64 // clean file pages dropped without I/O
	Reclaims    uint64
	Throttles   uint64
	Scanned     uint64
}

// frame is one resident page.
type frame struct {
	addr       uint64
	data       []byte
	class      vm.PageClass
	dirty      bool
	referenced bool
	active     bool
	elem       *list.Element
}

// Subsystem is the guest swap implementation of vm.Backing.
type Subsystem struct {
	params  Params
	swapDev *blockdev.Device
	fsDev   *blockdev.Device
	rng     *clock.Rand

	frames   map[uint64]*frame
	active   *list.List // front = oldest
	inactive *list.List

	classes   map[uint64]vm.PageClass
	swapSlots map[uint64]uint64 // page addr → swap slot (page still out there)
	freeSlots []uint64
	nextSlot  uint64
	fsBlocks  map[uint64]uint64 // file page addr → fs block
	nextBlock uint64

	epoch uint64
	stats Stats
}

var (
	_ vm.Backing          = (*Subsystem)(nil)
	_ vm.ClassAware       = (*Subsystem)(nil)
	_ vm.FootprintLimiter = (*Subsystem)(nil)
)

// New builds a subsystem over the given swap and filesystem devices.
func New(p Params, swapDev, fsDev *blockdev.Device, seed uint64) (*Subsystem, error) {
	if p.FramePages <= 0 {
		return nil, fmt.Errorf("swap: FramePages = %d", p.FramePages)
	}
	if swapDev == nil || fsDev == nil {
		return nil, errors.New("swap: nil device")
	}
	if p.ReclaimBatch <= 0 {
		p.ReclaimBatch = 32
	}
	return &Subsystem{
		params:    p,
		swapDev:   swapDev,
		fsDev:     fsDev,
		rng:       clock.NewRand(seed),
		frames:    make(map[uint64]*frame),
		active:    list.New(),
		inactive:  list.New(),
		classes:   make(map[uint64]vm.PageClass),
		swapSlots: make(map[uint64]uint64),
		fsBlocks:  make(map[uint64]uint64),
	}, nil
}

// SetClass implements vm.ClassAware.
func (s *Subsystem) SetClass(addr uint64, class vm.PageClass) {
	s.classes[align(addr)] = class
}

// ResidentPages implements vm.Backing.
func (s *Subsystem) ResidentPages() int { return len(s.frames) }

// FootprintLimit implements vm.FootprintLimiter.
func (s *Subsystem) FootprintLimit() int { return s.params.FramePages }

// Epoch implements vm.Backing.
func (s *Subsystem) Epoch() uint64 { return s.epoch }

// Stats returns a snapshot of activity counters.
func (s *Subsystem) Stats() Stats { return s.stats }

// Touch implements vm.Backing: the guest accesses addr.
func (s *Subsystem) Touch(now time.Duration, addr uint64, write bool) ([]byte, time.Duration, error) {
	page := align(addr)
	if f, ok := s.frames[page]; ok {
		// Resident: referenced-bit bookkeeping only (hardware-speed hit).
		// The bookkeeping is state, so a hit moves the epoch too: the VM
		// may skip only a repeat of this very access.
		if f.referenced && !f.active {
			s.promote(f)
		}
		f.referenced = true
		if write {
			f.dirty = true
		}
		s.epoch++
		return f.data, now, nil
	}

	// Fault. Secure a frame first (may reclaim).
	var err error
	if now, err = s.ensureFrame(now); err != nil {
		return nil, now, err
	}

	f := &frame{addr: page, class: s.classOf(page), dirty: write, referenced: false}
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
	s.epoch++
	return f.data, now, nil
}

// Discard implements vm.Backing (balloon-freed pages).
func (s *Subsystem) Discard(addr uint64) {
	page := align(addr)
	if f, ok := s.frames[page]; ok {
		s.unlink(f)
		delete(s.frames, page)
		s.epoch++
	}
	if slot, ok := s.swapSlots[page]; ok {
		s.freeSlots = append(s.freeSlots, slot-1)
		delete(s.swapSlots, page)
	}
}

// ensureFrame guarantees a free frame exists, reclaiming a batch if needed.
func (s *Subsystem) ensureFrame(now time.Duration) (time.Duration, error) {
	if len(s.frames) < s.params.FramePages {
		return now, nil
	}
	return s.reclaim(now, s.params.ReclaimBatch)
}

// reclaim evicts up to batch frames using second-chance scanning of the
// inactive list, aging the active list as needed. Swap-out writes are
// asynchronous: they occupy the device but stall the caller only when the
// device falls further behind than ThrottleDepth (writeback throttling).
func (s *Subsystem) reclaim(now time.Duration, batch int) (time.Duration, error) {
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
		f := elem.Value.(*frame)
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
func (s *Subsystem) evictable(f *frame) bool {
	switch f.class {
	case vm.ClassKernel, vm.ClassMlocked:
		return false
	default:
		return true
	}
}

// evict removes f from DRAM, writing it out as its class requires.
func (s *Subsystem) evict(now time.Duration, f *frame) (time.Duration, error) {
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
	s.epoch++
	return now, nil
}

// rebalance moves pages from the active front to the inactive tail until the
// inactive list holds at least a third of resident pages.
func (s *Subsystem) rebalance() {
	target := len(s.frames) / 3
	for s.inactive.Len() < target {
		elem := s.active.Front()
		if elem == nil {
			return
		}
		f := elem.Value.(*frame)
		s.active.Remove(elem)
		f.active = false
		f.referenced = false
		f.elem = s.inactive.PushBack(f)
	}
}

func (s *Subsystem) promote(f *frame) {
	if f.active {
		return
	}
	s.inactive.Remove(f.elem)
	f.active = true
	f.elem = s.active.PushBack(f)
}

func (s *Subsystem) unlink(f *frame) {
	if f.active {
		s.active.Remove(f.elem)
	} else {
		s.inactive.Remove(f.elem)
	}
}

func (s *Subsystem) allocSlot() (uint64, bool) {
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

func (s *Subsystem) allocBlock(page uint64) uint64 {
	if b, ok := s.fsBlocks[page]; ok {
		return b - 1
	}
	block := s.nextBlock
	s.nextBlock++
	s.fsBlocks[page] = block + 1
	return block
}

func (s *Subsystem) classOf(page uint64) vm.PageClass {
	if c, ok := s.classes[page]; ok {
		return c
	}
	return vm.ClassAnon
}

func align(addr uint64) uint64 { return addr &^ (PageSize - 1) }
