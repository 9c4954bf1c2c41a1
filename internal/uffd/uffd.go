// Package uffd simulates the Linux userfaultfd mechanism FluidMem is built
// on (§III–V): memory regions registered for user-space fault handling, a
// file-descriptor-like event queue, and the UFFDIO_ZEROPAGE / UFFDIO_COPY /
// UFFD_REMAP operations with service times calibrated to the paper's Table I
// microbenchmarks (including UFFD_REMAP's TLB-shootdown tail).
//
// The package owns the simulated page tables: a registered region's pages are
// missing until the monitor maps them, and every access to a missing page
// raises a fault event, exactly like first-touch behaviour under userfaultfd.
package uffd

import (
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/trace"
)

// PageSize is the page granularity of fault handling.
const PageSize = 4096

// Errors returned by page operations.
var (
	// ErrNotRegistered reports an operation on an address outside any region.
	ErrNotRegistered = errors.New("uffd: address not in a registered region")
	// ErrAlreadyMapped reports ZeroPage/Copy on an already-present page
	// (EEXIST from the real ioctl).
	ErrAlreadyMapped = errors.New("uffd: page already mapped")
	// ErrNotMapped reports Remap of a missing page.
	ErrNotMapped = errors.New("uffd: page not mapped")
)

// PageState describes one page in a registered region.
type PageState int

// Page states.
const (
	// PageMissing pages have no mapping; access faults to the monitor.
	PageMissing PageState = iota + 1
	// PageZeroCOW pages map the kernel's shared zero page copy-on-write:
	// reads return zeroes, the first write takes a cheap kernel-internal
	// fault that allocates a private page (no userfaultfd event).
	PageZeroCOW
	// PagePresent pages have a private frame with data.
	PagePresent
)

// Params holds the operation service times (Table I calibration).
type Params struct {
	// FaultTrap is the kernel cost of trapping the access, running the
	// userfaultfd handling code, and queueing the event to the monitor.
	FaultTrap clock.LatencyModel
	// ZeroPage is UFFDIO_ZEROPAGE: map the shared zero page (2.61 µs).
	ZeroPage clock.LatencyModel
	// Copy is UFFDIO_COPY: allocate a frame and copy data in (3.89 µs).
	Copy clock.LatencyModel
	// Remap is the proposed UFFD_REMAP: move a page out by page-table
	// manipulation. Average 1.65 µs but with an 18 µs p99 tail from the
	// interprocessor TLB-shootdown interrupt.
	Remap clock.LatencyModel
	// RemapInterleaved is the remap cost observed when the call runs while
	// the vCPU is already suspended (§V-B: "returned after only 2 µs").
	RemapInterleaved clock.LatencyModel
	// COWBreak is the kernel-internal minor fault that converts a zero-COW
	// page into a private page on first write.
	COWBreak clock.LatencyModel
	// Wake is the cost of waking the blocked vCPU thread.
	Wake clock.LatencyModel
	// WriteProtect is the write-protect half of a UFFDIO_COPY_MODE_WP
	// install: the page is mapped read-only so the first guest write after
	// install is observed — the dirty-tracking hook the clean-page-drop
	// eviction optimisation needs.
	WriteProtect clock.LatencyModel
	// WPFault is the write-protect fault taken on the first write to a
	// protected page: the protection is cleared, the page is recorded dirty,
	// and the write retries. Resolved kernel-side like COWBreak, with no
	// monitor round trip.
	WPFault clock.LatencyModel
}

// DefaultParams returns Table-I-calibrated service times.
func DefaultParams() Params {
	return Params{
		FaultTrap:        clock.LatencyModel{Base: 5200 * time.Nanosecond, Jitter: 600 * time.Nanosecond},
		ZeroPage:         clock.LatencyModel{Base: 2610 * time.Nanosecond, Jitter: 440 * time.Nanosecond, TailProb: 0.01, TailExtra: 900 * time.Nanosecond},
		Copy:             clock.LatencyModel{Base: 3890 * time.Nanosecond, Jitter: 770 * time.Nanosecond, TailProb: 0.01, TailExtra: 1540 * time.Nanosecond},
		Remap:            clock.LatencyModel{Base: 1300 * time.Nanosecond, Jitter: 400 * time.Nanosecond, TailProb: 0.022, TailExtra: 17 * time.Microsecond},
		RemapInterleaved: clock.LatencyModel{Base: 2 * time.Microsecond, Jitter: 300 * time.Nanosecond},
		COWBreak:         clock.LatencyModel{Base: 1200 * time.Nanosecond, Jitter: 200 * time.Nanosecond},
		Wake:             clock.LatencyModel{Base: 900 * time.Nanosecond, Jitter: 150 * time.Nanosecond},
		WriteProtect:     clock.LatencyModel{Base: 1790 * time.Nanosecond, Jitter: 330 * time.Nanosecond},
		WPFault:          clock.LatencyModel{Base: 2340 * time.Nanosecond, Jitter: 410 * time.Nanosecond},
	}
}

// Event is one page-fault notification read from the descriptor. The monitor
// receives the faulting address and the owning process (§V-A).
type Event struct {
	// Addr is the page-aligned faulting address.
	Addr uint64
	// PID identifies the faulting process (the VM's QEMU process).
	PID int
	// Write reports whether the access was a write.
	Write bool
	// Raised is the virtual time the fault occurred.
	Raised time.Duration
}

// Page-table entry layout: the PageState in the low two bits (zero meaning no
// mapping, PageMissing), two flags, and from pteFrameShift up the slot of a
// present page's frame in FD.frames (zero for none).
const (
	pteState = 0x3
	// pteWP marks the page write-protected: CopyWP installed it from a
	// durable store copy and it has not been written since. Its frame is
	// shared — the caller's buffer itself, which the descriptor does not own
	// and never pools. The first write clears the bit via a kernel-internal
	// WP fault, which gives the page a private copy.
	pteWP = 1 << 2
	// pteWaiting marks a faulted page whose vCPU is blocked until Wake.
	pteWaiting    = 1 << 3
	pteFrameShift = 4
)

// TLB is a process's translation cache (the guest VM's), shot down by page.
type TLB interface{ Shootdown(addr uint64) }

// Region is one registered memory range belonging to one process.
//
// ptes is its page table, one entry per page indexed by page number within
// the region. Everything the descriptor knows about a page lives in its
// entry, so an operation costs a region lookup and an index — no hashing —
// and all of it goes away with the region.
type Region struct {
	Start  uint64
	Length uint64
	PID    int

	ptes   []uint32
	mapped int
	tlb    TLB // where the pages unmapped here are shot down (nil: nowhere)
}

// End returns the first address past the region.
func (r *Region) End() uint64 { return r.Start + r.Length }

// contains reports whether addr falls inside the region.
func (r *Region) contains(addr uint64) bool {
	return addr >= r.Start && addr < r.End()
}

// pte returns the page-table entry of addr, which must be inside the region.
func (r *Region) pte(addr uint64) *uint32 { return &r.ptes[(addr-r.Start)/PageSize] }

// State reports the page state at addr (PageMissing if never touched).
func (r *Region) State(addr uint64) PageState {
	if r.contains(addr) {
		if state := PageState(*r.pte(addr) & pteState); state != 0 {
			return state
		}
	}
	return PageMissing
}

// MappedPages counts pages currently resident (zero-COW or present). This is
// the VM's local memory footprint, the quantity Table III minimises.
func (r *Region) MappedPages() int { return r.mapped }

// FD is the simulated userfaultfd descriptor: the monitor process polls it
// for fault events and resolves them with page operations.
//
// The descriptor recycles page frames through a freelist so the steady-state
// fault pipeline (install via Copy/ZeroPage, evict via Remap, hand the frame
// back via Recycle) runs without heap allocation. A frame returned by Remap
// is owned by the caller until it is passed to Recycle or handed to a new
// owner (a store's MultiPut keeps it and gives another buffer back, which
// comes here in its place); Unregister recycles the frames of a dead VM.
// A write-protected page's shared buffer is the one exception: it belongs to
// whoever passed it to CopyWP, so it never enters the pool and never leaves
// the descriptor — Remap hands out a copy, RemapDrop and Drop forget it.
type FD struct {
	params  Params
	rng     *clock.Rand
	regions []*Region
	tlbs    map[int]TLB // by PID, for the PID's regions registered later

	// queue is a ring buffer of pending fault events: qHead indexes the
	// oldest event, qLen counts them, and the slice grows (power of two)
	// only when depth exceeds capacity — never per event.
	queue []Event
	qHead int
	qLen  int

	// wpFaults counts write-protect faults taken (dirty-tracking traffic).
	wpFaults uint64
	// pageCopies counts PageSize host copies of page contents (test hook,
	// see PageCopies).
	pageCopies uint64

	// frames holds the frames of present pages, at the slot their entry
	// names; slot 0 is no frame and freeSlots are the vacant ones.
	// freeFrames recycles PageSize buffers no page maps.
	frames     [][]byte
	freeSlots  []uint32
	freeFrames [][]byte

	// tr receives one event per page operation, attributed to WorkerOf its
	// page among trWorkers.
	tr        *trace.Tracer
	trWorkers int
}

// New returns a descriptor with the given service-time parameters.
func New(params Params, seed uint64) *FD {
	return &FD{
		params: params,
		rng:    clock.NewRand(seed),
		tlbs:   make(map[int]TLB),
		frames: make([][]byte, 1),
	}
}

// install maps frame at pte and returns it: a frame the descriptor owns, or
// with wp a caller's buffer, write-protected and shared.
func (f *FD) install(pte *uint32, frame []byte, wp bool) []byte {
	flags := uint32(PagePresent)
	if wp {
		flags |= pteWP
	}
	slot := uint32(len(f.frames))
	if n := len(f.freeSlots); n > 0 {
		slot = f.freeSlots[n-1]
		f.freeSlots = f.freeSlots[:n-1]
		f.frames[slot] = frame
	} else {
		f.frames = append(f.frames, frame)
	}
	*pte = *pte&pteWaiting | flags | slot<<pteFrameShift
	return frame
}

// copyPage returns a pooled frame holding a copy of src.
func (f *FD) copyPage(src []byte) []byte {
	frame := f.GetFrame()
	copy(frame, src)
	f.pageCopies++
	return frame
}

// zeroFrame returns a pooled frame filled with zeroes: what a zero-COW page
// becomes when it is written or moved out.
func (f *FD) zeroFrame() []byte {
	frame := f.GetFrame()
	clear(frame)
	return frame
}

// unmap clears page addr of region and shoots it down (flush_tlb_page),
// returning the frame it held (nil for a zero-COW page); owned is false for
// the zero page and a shared buffer, which are not the descriptor's to give
// away. The waiting bit is not part of the mapping and survives.
func (f *FD) unmap(region *Region, addr uint64) (frame []byte, owned bool) {
	pte := region.pte(addr)
	slot, wp := *pte>>pteFrameShift, *pte&pteWP != 0
	*pte &= pteWaiting
	region.mapped--
	if region.tlb != nil {
		region.tlb.Shootdown(addr)
	}
	if slot == 0 {
		return nil, false
	}
	frame = f.frames[slot]
	f.frames[slot] = nil
	f.freeSlots = append(f.freeSlots, slot)
	return frame, !wp
}

// GetFrame pops a recycled PageSize buffer or allocates a fresh one. The
// contents are unspecified; callers must fully overwrite or zero it. The
// monitor uses it for staging (e.g. copy-out eviction) and returns the buffer
// via Recycle when done.
func (f *FD) GetFrame() []byte {
	if n := len(f.freeFrames); n > 0 {
		buf := f.freeFrames[n-1]
		f.freeFrames = f.freeFrames[:n-1]
		return buf
	}
	return make([]byte, PageSize)
}

// Recycle returns a frame to the descriptor's pool. Only full-size frames
// whose ownership the caller holds may be recycled: buffers returned by a
// key-value store read must never be passed here (the store retains them,
// and a CopyWP install may map one). Short or oversized buffers are ignored.
func (f *FD) Recycle(buf []byte) {
	if len(buf) != PageSize {
		return
	}
	f.freeFrames = append(f.freeFrames, buf)
}

// FrameCounts reports the frames present pages map and the frames pooled for
// reuse: the descriptor's share of the page buffers in the system (test hook).
// Shared buffers that write-protected pages map are not the descriptor's and
// are not counted.
func (f *FD) FrameCounts() (mapped, pooled int) {
	mapped = len(f.frames) - 1 - len(f.freeSlots)
	for _, r := range f.regions {
		for _, pte := range r.ptes {
			if pte&pteWP != 0 {
				mapped--
			}
		}
	}
	return mapped, len(f.freeFrames)
}

// PageCopies reports the PageSize host copies of page contents the
// descriptor has made since creation (test hook): one per Copy, per first
// write to a shared page, and per Remap of a shared page. A zero-COW page's
// COW break and Remap fill a frame with zeroes and copy nothing. It is host
// work only — no virtual time, no sample, no Stats field depends on it.
func (f *FD) PageCopies() uint64 { return f.pageCopies }

// pushEvent appends a fault event to the ring, growing it only when full.
func (f *FD) pushEvent(ev Event) {
	if f.qLen == len(f.queue) {
		grown := make([]Event, max(16, 2*len(f.queue)))
		for i := 0; i < f.qLen; i++ {
			grown[i] = f.queue[(f.qHead+i)%len(f.queue)]
		}
		f.queue = grown
		f.qHead = 0
	}
	f.queue[(f.qHead+f.qLen)%len(f.queue)] = ev
	f.qLen++
}

// WorkerOf is the fault-pipeline worker that owns the page at addr when the
// pipeline is workers wide (workers >= 1): page number modulo width, a mask
// when the width is a power of two. It is the one definition of "which worker
// owns this page" — the monitor's dispatch and every trace event's worker id
// come from here.
func WorkerOf(addr uint64, workers int) int {
	page, n := addr/PageSize, uint64(workers)
	if n&(n-1) == 0 {
		return int(page & (n - 1))
	}
	return int(page % n)
}

// SetTracer routes page-operation events (ZEROPAGE, COPY, REMAP,
// WRITEPROTECT) to tr, each attributed to WorkerOf its page in a pipeline
// workers wide (below one counts as one). A nil tracer disables emission;
// tracing never samples the RNG or changes any returned time.
func (f *FD) SetTracer(tr *trace.Tracer, workers int) {
	f.tr = tr
	f.trWorkers = max(workers, 1)
}

// Register adds [start, start+length) as a fault-handled region for pid,
// mirroring the userfaultfd registration QEMU performs when FluidMem wraps
// its guest memory allocation (§IV). Regions must be page-aligned and must
// not overlap existing registrations.
func (f *FD) Register(start, length uint64, pid int) (*Region, error) {
	if start%PageSize != 0 || length%PageSize != 0 || length == 0 || start+length < start {
		return nil, fmt.Errorf("uffd: region [%#x,+%#x) is not page-aligned, or empty, or wraps past 2^64", start, length)
	}
	for _, r := range f.regions {
		if start < r.End() && r.Start < start+length {
			return nil, fmt.Errorf("uffd: region [%#x,+%#x) overlaps [%#x,+%#x)", start, length, r.Start, r.Length)
		}
	}
	region := &Region{Start: start, Length: length, PID: pid, ptes: make([]uint32, length/PageSize), tlb: f.tlbs[pid]}
	f.regions = append(f.regions, region)
	return region, nil
}

// Attach routes the shootdowns of pid's regions, those registered later
// included, to tlb.
func (f *FD) Attach(pid int, tlb TLB) {
	f.tlbs[pid] = tlb
	for _, r := range f.regions {
		if r.PID == pid {
			r.tlb = tlb
		}
	}
}

// Unregister removes a region (VM shutdown): its pages, and the record of
// which of them a vCPU was blocked on, vanish with its page table — the owned
// frames go back to the pool for the next VM, shared buffers are forgotten —
// and pending events for it are dropped, like closing the descriptor side of
// a dead VM.
func (f *FD) Unregister(region *Region) {
	for i, pte := range region.ptes {
		if pte&pteState != 0 {
			f.drop(region, region.Start+uint64(i)*PageSize)
		}
	}
	kept := f.regions[:0]
	for _, r := range f.regions {
		if r != region {
			kept = append(kept, r)
		}
	}
	f.regions = kept
	kept2 := make([]Event, 0, f.qLen)
	for i := 0; i < f.qLen; i++ {
		ev := f.queue[(f.qHead+i)%len(f.queue)]
		if !region.contains(ev.Addr) {
			kept2 = append(kept2, ev)
		}
	}
	f.queue = kept2
	f.qHead = 0
	f.qLen = len(kept2)
}

// Regions returns the registered regions (monitor bookkeeping).
func (f *FD) Regions() []*Region {
	out := make([]*Region, len(f.regions))
	copy(out, f.regions)
	return out
}

// Access performs a guest memory access at addr. If the page is resident it
// returns its data (for reads) with hit=true and zero added latency beyond
// the access itself. If the page is missing, the access traps: a fault event
// is queued, the vCPU blocks, and hit=false is returned along with the
// virtual time at which the event is visible to the monitor.
//
// A write to a zero-COW page takes the kernel-internal COW break (a "minor
// fault" with no monitor involvement) and returns hit=true.
func (f *FD) Access(now time.Duration, addr uint64, write bool) (data []byte, eventAt time.Duration, hit bool, err error) {
	region := f.regionFor(addr)
	if region == nil {
		return nil, now, false, fmt.Errorf("%w: %#x", ErrNotRegistered, addr)
	}
	pte := region.pte(addr)
	switch PageState(*pte & pteState) {
	case 0:
		trap := f.params.FaultTrap.Sample(f.rng)
		f.pushEvent(Event{Addr: align(addr), PID: region.PID, Write: write, Raised: now})
		*pte |= pteWaiting
		return nil, now + trap, false, nil
	case PageZeroCOW:
		if !write {
			return zeroPage, now, true, nil
		}
		// COW break: private zero-filled frame, no monitor round trip.
		return f.install(pte, f.zeroFrame(), false), now + f.params.COWBreak.Sample(f.rng), true, nil
	default: // PagePresent
		slot := *pte >> pteFrameShift
		if write && *pte&pteWP != 0 {
			// Write-protect fault: clear the protection and charge the
			// kernel-internal fix-up before the write retries. The page is
			// dirty from here on, so it stops sharing the caller's buffer:
			// the write lands in a private copy (host work, no extra
			// virtual time).
			*pte &^= pteWP
			f.frames[slot] = f.copyPage(f.frames[slot])
			f.wpFaults++
			return f.frames[slot], now + f.params.WPFault.Sample(f.rng), true, nil
		}
		return f.frames[slot], now, true, nil
	}
}

// NextEvent pops the oldest pending fault event, reporting ok=false when the
// queue is empty (the monitor's poll loop).
func (f *FD) NextEvent() (Event, bool) {
	if f.qLen == 0 {
		return Event{}, false
	}
	ev := f.queue[f.qHead]
	f.qHead = (f.qHead + 1) % len(f.queue)
	f.qLen--
	return ev, true
}

// PendingEvents reports queued fault count.
func (f *FD) PendingEvents() int { return f.qLen }

// ZeroPage resolves a fault by mapping the shared zero page copy-on-write at
// addr (UFFDIO_ZEROPAGE). This is FluidMem's first-touch fast path (§V-A):
// no key-value store read is needed for a page never seen before.
func (f *FD) ZeroPage(now time.Duration, addr uint64) (time.Duration, error) {
	region := f.regionFor(addr)
	if region == nil {
		return now, fmt.Errorf("%w: %#x", ErrNotRegistered, addr)
	}
	aligned := align(addr)
	pte := region.pte(addr)
	if *pte&pteState != 0 {
		return now, fmt.Errorf("%w: %#x", ErrAlreadyMapped, aligned)
	}
	*pte |= uint32(PageZeroCOW)
	region.mapped++
	done := now + f.params.ZeroPage.Sample(f.rng)
	if f.tr != nil {
		f.tr.Emit(trace.EvUffdZeroPage, WorkerOf(aligned, f.trWorkers), aligned, now, done-now, "")
	}
	return done, nil
}

// Copy resolves a fault by allocating a frame at addr and copying data into
// it (UFFDIO_COPY), used when the page's contents live in the key-value
// store. The caller keeps data.
func (f *FD) Copy(now time.Duration, addr uint64, data []byte) (time.Duration, error) {
	done, _, err := f.copyIn(now, addr, data, false)
	return done, err
}

// CopyWP is Copy in write-protect mode (UFFDIO_COPY_MODE_WP): the page is
// installed read-only, so a later eviction can tell a still-clean page (drop,
// no store write) from a dirtied one. The monitor uses it for a page whose
// contents the store durably holds. It costs Copy's sample and then
// WriteProtect's, and emits their two events: copied is when the install is
// done, protected when the protection is.
//
// Nothing is copied: the page maps data itself, shared, until its first
// write copies it into a private frame. The caller must therefore keep data's
// bytes unchanged, and the buffer out of reuse, until the page has left the
// VM — a store read's buffer qualifies, because the monitor writes or deletes
// a key only after its page has left (kvstore.Store's read contract).
func (f *FD) CopyWP(now time.Duration, addr uint64, data []byte) (copied, protected time.Duration, err error) {
	return f.copyIn(now, addr, data, true)
}

// copyIn is Copy, and with wp CopyWP.
func (f *FD) copyIn(now time.Duration, addr uint64, data []byte, wp bool) (copied, protected time.Duration, err error) {
	region := f.regionFor(addr)
	if region == nil {
		return now, now, fmt.Errorf("%w: %#x", ErrNotRegistered, addr)
	}
	if len(data) != PageSize {
		return now, now, fmt.Errorf("uffd: copy of %d bytes, want %d", len(data), PageSize)
	}
	aligned := align(addr)
	pte := region.pte(addr)
	if *pte&pteState != 0 {
		return now, now, fmt.Errorf("%w: %#x", ErrAlreadyMapped, aligned)
	}
	frame := data
	if !wp {
		frame = f.copyPage(data)
	}
	f.install(pte, frame, wp)
	region.mapped++
	copied = now + f.params.Copy.Sample(f.rng)
	if f.tr != nil {
		f.tr.Emit(trace.EvUffdCopy, WorkerOf(aligned, f.trWorkers), aligned, now, copied-now, "")
	}
	if !wp {
		return copied, copied, nil
	}
	protected = copied + f.params.WriteProtect.Sample(f.rng)
	if f.tr != nil {
		f.tr.Emit(trace.EvUffdWP, WorkerOf(aligned, f.trWorkers), aligned, copied, protected-copied, "")
	}
	return copied, protected, nil
}

// PageClean reports whether the page at addr is present, write-protected,
// and unwritten since protection — i.e. its store copy is still current and
// eviction may drop it without a write. Missing and zero-COW pages report
// false (a zero-COW page has no store copy; zero-page elision covers it).
func (f *FD) PageClean(addr uint64) bool {
	region := f.regionFor(addr)
	if region == nil {
		return false
	}
	const clean = uint32(PagePresent) | pteWP
	return *region.pte(addr)&(pteState|pteWP) == clean
}

// WPFaults reports write-protect faults taken since creation.
func (f *FD) WPFaults() uint64 { return f.wpFaults }

// Remap evicts the page at addr: page-table entries move the frame out of
// the VM into a monitor-owned buffer without copying the contents (the
// proposed UFFD_REMAP, §V-A). The page becomes missing again. interleaved
// selects the cheaper cost observed when the vCPU is already suspended
// (§V-B asynchronous reads).
//
// The returned buffer is the caller's: the evicted frame itself — zero-copy
// semantics — or, for a page that maps the zero page or a shared buffer, a
// pooled frame holding a copy.
func (f *FD) Remap(now time.Duration, addr uint64, interleaved bool) ([]byte, time.Duration, error) {
	return f.remap(now, addr, interleaved, true)
}

// RemapDrop is Remap for a caller that discards the contents — the clean-drop
// eviction, whose store copy is current: same cost, same event, but no bytes
// move. An owned frame goes back to the pool and a shared buffer is
// forgotten, never copied.
func (f *FD) RemapDrop(now time.Duration, addr uint64, interleaved bool) (time.Duration, error) {
	_, done, err := f.remap(now, addr, interleaved, false)
	return done, err
}

// remap is Remap, returning the contents only with keep.
func (f *FD) remap(now time.Duration, addr uint64, interleaved, keep bool) ([]byte, time.Duration, error) {
	region := f.regionFor(addr)
	if region == nil {
		return nil, now, fmt.Errorf("%w: %#x", ErrNotRegistered, addr)
	}
	aligned := align(addr)
	pte := region.pte(addr)
	if *pte&pteState == 0 {
		return nil, now, fmt.Errorf("%w: %#x", ErrNotMapped, aligned)
	}
	var data []byte
	if keep {
		// Frame ownership moves to the caller; what the descriptor does not
		// own moves out as a copy, and the zero page as a frame of zeroes.
		var owned bool
		switch data, owned = f.unmap(region, aligned); {
		case data == nil:
			data = f.zeroFrame()
		case !owned:
			data = f.copyPage(data)
		}
	} else {
		f.drop(region, aligned)
	}
	model := f.params.Remap
	arg := ""
	if interleaved {
		model = f.params.RemapInterleaved
		arg = "interleaved"
	}
	done := now + model.Sample(f.rng)
	if f.tr != nil {
		f.tr.Emit(trace.EvUffdRemap, WorkerOf(aligned, f.trWorkers), aligned, now, done-now, arg)
	}
	return data, done, nil
}

// Drop removes the page at addr without preserving its contents (madvise
// MADV_DONTNEED semantics), used for balloon-discarded pages. Dropping a
// missing page is a no-op. It reports whether a page was removed.
func (f *FD) Drop(addr uint64) bool {
	region := f.regionFor(addr)
	if region == nil {
		return false
	}
	if *region.pte(addr)&pteState == 0 {
		return false
	}
	f.drop(region, align(addr))
	return true
}

// drop unmaps addr, a page of region, pooling its frame if the descriptor
// owns it.
func (f *FD) drop(region *Region, addr uint64) {
	if frame, owned := f.unmap(region, addr); owned {
		f.Recycle(frame)
	}
}

// Wake unblocks the vCPU thread faulted at addr after the monitor resolved
// the fault.
func (f *FD) Wake(now time.Duration, addr uint64) time.Duration {
	if region := f.regionFor(addr); region != nil {
		*region.pte(addr) &^= pteWaiting
	}
	return now + f.params.Wake.Sample(f.rng)
}

// Waiting reports whether a vCPU is still blocked on addr.
func (f *FD) Waiting(addr uint64) bool {
	region := f.regionFor(addr)
	return region != nil && *region.pte(addr)&pteWaiting != 0
}

func (f *FD) regionFor(addr uint64) *Region {
	for _, r := range f.regions {
		if r.contains(addr) {
			return r
		}
	}
	return nil
}

func align(addr uint64) uint64 { return addr &^ (PageSize - 1) }

// zeroPage is the shared read-only zero page.
var zeroPage = make([]byte, PageSize)
