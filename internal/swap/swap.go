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
//
// Each guest page's state — class, frame, swap slot, filesystem block, and
// dirty, referenced and active bits — is one record in a slab, found through
// one map; the active and inactive lists are ilist lists over the slab, so
// faults, evictions and promotions allocate nothing of the subsystem's own.
package swap

import (
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/blockdev"
	"fluidmem/internal/clock"
	"fluidmem/internal/ilist"
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

// page is one guest page's record, made on its first fault or class tag.
type page struct {
	addr uint64
	data []byte // the frame: non-nil exactly while the page is resident
	// The page's tag, and the tag its frame was faulted in under (reclaim's).
	class, frameClass         vm.PageClass
	slot, block               uint64 // swap slot and filesystem block, plus one: 0 for none
	dirty, referenced, active bool   // the frame's bits; active: which list it is on
}

// Subsystem is the guest swap implementation of vm.Backing.
type Subsystem struct {
	params  Params
	swapDev *blockdev.Device
	fsDev   *blockdev.Device
	rng     *clock.Rand

	// index finds a page's record in pages (entry 0 is nil) through chunks
	// of 512 pages, so a hit hashes into a map of chunks, not of pages.
	// links threads resident records onto active and inactive, oldest first.
	index    map[uint64]*[512]uint32
	pages    []page
	links    []ilist.Link
	active   ilist.List
	inactive ilist.List

	freeSlots []uint64
	nextSlot  uint64
	nextBlock uint64

	tlb   interface{ Flush() } // the attached VM (noTLB before Attach)
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
		params:  p,
		swapDev: swapDev,
		fsDev:   fsDev,
		rng:     clock.NewRand(seed),
		index:   make(map[uint64]*[512]uint32),
		pages:   make([]page, 1),
		links:   make([]ilist.Link, 1),
		tlb:     noTLB{},
	}, nil
}

// record returns the slab index of the record of the page at addr. A page
// without one gets one if create is set, and 0, the nil record, if not.
// Making a record grows the slab and moves it: no *page survives that call.
func (s *Subsystem) record(addr uint64, create bool) uint32 {
	c := s.index[addr/(512*PageSize)]
	if c == nil {
		if !create {
			return 0
		}
		c = new([512]uint32)
		s.index[addr/(512*PageSize)] = c
	}
	i := &c[addr/PageSize%512]
	if *i == 0 && create {
		*i = uint32(len(s.pages))
		s.pages = append(s.pages, page{addr: addr, class: vm.ClassAnon})
		s.links = append(s.links, ilist.Link{})
	}
	return *i
}

// SetClass implements vm.ClassAware.
func (s *Subsystem) SetClass(addr uint64, class vm.PageClass) {
	s.pages[s.record(align(addr), true)].class = class
}

// ResidentPages implements vm.Backing.
func (s *Subsystem) ResidentPages() int { return s.active.Len + s.inactive.Len }

// FootprintLimit implements vm.FootprintLimiter.
func (s *Subsystem) FootprintLimit() int { return s.params.FramePages }

// Attach implements vm.Backing.
func (s *Subsystem) Attach(v *vm.VM) { s.tlb = v }

// noTLB stands in for the VM until Attach.
type noTLB struct{}

func (noTLB) Flush() {}

// Stats returns a snapshot of activity counters.
func (s *Subsystem) Stats() Stats { return s.stats }

// Touch implements vm.Backing: the guest accesses addr.
func (s *Subsystem) Touch(now time.Duration, addr uint64, write bool) ([]byte, time.Duration, error) {
	addr = align(addr)
	if i := s.record(addr, false); s.pages[i].data != nil {
		// Resident: referenced-bit bookkeeping only (hardware-speed hit).
		// The bookkeeping is state, so a hit flushes the TLB too: the VM
		// may skip only a repeat of this very access.
		p := &s.pages[i]
		if p.referenced && !p.active {
			s.promote(i)
		}
		p.referenced = true
		if write {
			p.dirty = true
		}
		s.tlb.Flush()
		return p.data, now, nil
	}

	// Fault. Secure a frame first (may reclaim).
	var err error
	if s.ResidentPages() >= s.params.FramePages {
		if now, err = s.reclaim(now, s.params.ReclaimBatch); err != nil {
			return nil, now, err
		}
	}

	i := s.record(addr, true)
	p := &s.pages[i]
	p.frameClass, p.dirty, p.referenced, p.active = p.class, write, false, false
	var data []byte
	if p.slot == 0 && p.block == 0 {
		// Minor fault: first touch, zero-fill.
		s.stats.MinorFaults++
		now += s.params.MinorFault.Sample(s.rng)
		data = make([]byte, PageSize)
	} else {
		// Major fault: swap-in through the swap cache and the block layer.
		// A file-backed page refills from the filesystem instead.
		now += s.params.KernelFault.Sample(s.rng)
		dev, block, op := s.fsDev, p.block-1, "file refill"
		if p.slot != 0 {
			s.stats.MajorFaults++
			now += s.params.SwapCache.Sample(s.rng)
			dev, block, op = s.swapDev, p.slot-1, "swap-in"
		} else {
			s.stats.FileRefills++
		}
		now += s.params.BlockLayer.Sample(s.rng)
		if data, now, err = dev.ReadPage(now, block); err != nil {
			return nil, now, fmt.Errorf("%s %#x: %w", op, addr, err)
		}
		now += s.params.PageCopy.Sample(s.rng)
		now += s.params.LRUBookkeeping.Sample(s.rng)
		if p.slot != 0 {
			// The slot is freed on swap-in (no swap cache retention modelled).
			p.slot = 0
			s.freeSlots = append(s.freeSlots, block)
		}
	}

	p.data = data
	s.inactive.PushBack(s.links, i)
	s.tlb.Flush()
	return data, now, nil
}

// Discard implements vm.Backing (balloon-freed pages).
func (s *Subsystem) Discard(addr uint64) {
	// A page without a record resolves to the nil record: nothing to do.
	i := s.record(align(addr), false)
	p := &s.pages[i]
	if p.data != nil {
		s.dropFrame(i)
	}
	if p.slot != 0 {
		s.freeSlots = append(s.freeSlots, p.slot-1)
		p.slot = 0
	}
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
		i := s.inactive.Head
		if i == 0 {
			s.rebalance()
			if s.inactive.Len == 0 {
				break
			}
			continue
		}
		scanBudget--
		s.stats.Scanned++
		now += s.params.ScanCost
		p := &s.pages[i]
		if p.referenced {
			// Second chance: clear and promote.
			p.referenced = false
			s.promote(i)
			continue
		}
		if p.frameClass == vm.ClassKernel || p.frameClass == vm.ClassMlocked {
			// Unevictable pages — the heart of *partial* disaggregation —
			// rotate back to the active list.
			s.promote(i)
			continue
		}
		var err error
		if now, err = s.evict(now, i); err != nil {
			return now, err
		}
		freed++
	}
	if freed == 0 {
		return now, fmt.Errorf("%w: %d resident, all unevictable or referenced", ErrOOM, s.ResidentPages())
	}
	return now, nil
}

// evict removes record i's frame from DRAM, writing it out as its class
// requires.
func (s *Subsystem) evict(now time.Duration, i uint32) (time.Duration, error) {
	p := &s.pages[i]
	switch p.frameClass {
	case vm.ClassAnon:
		slot, ok := s.allocSlot()
		if !ok {
			return now, ErrSwapFull
		}
		s.stats.SwapOuts++
		// Asynchronous writeback: the write rides the device's background
		// channel (kswapd) and enters the fault critical path only through
		// writeback throttling when that channel falls too far behind.
		done, err := s.swapDev.WritePageAsync(now, slot, p.data)
		if err != nil {
			return now, fmt.Errorf("swap-out %#x: %w", p.addr, err)
		}
		now = s.throttle(now, done)
		p.slot = slot + 1
	case vm.ClassFile:
		if !p.dirty && p.block != 0 {
			s.stats.DroppedFile++
			break
		}
		// A clean file page without a disk copy yet (first eviction of a
		// boot-warmed page) is written once, to be refillable; only a dirty
		// page's write can throttle.
		block := s.allocBlock(p)
		s.stats.FileWrites++
		done, err := s.fsDev.WritePageAsync(now, block, p.data)
		if err != nil {
			return now, fmt.Errorf("file writeback %#x: %w", p.addr, err)
		}
		if p.dirty {
			now = s.throttle(now, done)
		}
	}
	s.dropFrame(i)
	return now, nil
}

// throttle stalls the caller once a writeback channel, done being when it
// finishes the write just queued, runs more than ThrottleDepth behind now.
func (s *Subsystem) throttle(now, done time.Duration) time.Duration {
	if done-now > s.params.ThrottleDepth {
		s.stats.Throttles++
		return done - s.params.ThrottleDepth
	}
	return now
}

// rebalance moves pages from the active front to the inactive tail until the
// inactive list holds at least a third of resident pages.
func (s *Subsystem) rebalance() {
	target := s.ResidentPages() / 3
	for s.inactive.Len < target {
		i := s.active.Head
		if i == 0 {
			return
		}
		s.active.Remove(s.links, i)
		s.pages[i].active, s.pages[i].referenced = false, false
		s.inactive.PushBack(s.links, i)
	}
}

func (s *Subsystem) promote(i uint32) {
	if p := &s.pages[i]; !p.active {
		s.inactive.Remove(s.links, i)
		p.active = true
		s.active.PushBack(s.links, i)
	}
}

// dropFrame takes record i's frame off its list and out of DRAM.
func (s *Subsystem) dropFrame(i uint32) {
	if s.pages[i].active {
		s.active.Remove(s.links, i)
	} else {
		s.inactive.Remove(s.links, i)
	}
	s.pages[i].data = nil
	s.tlb.Flush()
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

func (s *Subsystem) allocBlock(p *page) uint64 {
	if p.block == 0 {
		p.block = s.nextBlock + 1
		s.nextBlock++
	}
	return p.block - 1
}

func align(addr uint64) uint64 { return addr &^ (PageSize - 1) }
