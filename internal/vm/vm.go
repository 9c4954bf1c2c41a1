// Package vm simulates the unmodified guest virtual machine FluidMem manages:
// guest physical memory with realistic page classes (kernel, anonymous,
// file-backed, mlocked), a bootable OS footprint, memory hotplug, a KVM-style
// balloon driver, and the SSH/ICMP service responsiveness model behind the
// paper's Table III.
//
// The VM itself stores no page contents; every access is routed to a Backing
// (the FluidMem monitor, or the guest swap subsystem) which owns residency,
// eviction, and the bytes themselves. This mirrors the paper's architecture:
// the guest is unmodified and memory management lives below it.
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"
)

// PageSize is the guest page size.
const PageSize = 4096

// Errors returned by VM operations.
var (
	// ErrOutOfMemory reports an allocation past the guest's physical size.
	ErrOutOfMemory = errors.New("vm: out of guest physical memory")
	// ErrBadAddress reports an access outside any allocated segment.
	ErrBadAddress = errors.New("vm: address outside allocated memory")
)

// PageClass categorises guest pages. The distinction is the heart of the
// full-vs-partial disaggregation argument (§II): swap can evict only
// anonymous pages, while FluidMem can disaggregate every class.
type PageClass int

// Page classes.
const (
	// ClassAnon pages are anonymous process memory — swappable.
	ClassAnon PageClass = iota + 1
	// ClassFile pages are file-backed (binaries, page cache) — written back
	// to the filesystem, never to swap.
	ClassFile
	// ClassKernel pages belong to the guest kernel — unevictable by swap.
	ClassKernel
	// ClassMlocked pages are pinned with mlock — unevictable by swap.
	ClassMlocked
)

func (c PageClass) String() string {
	switch c {
	case ClassAnon:
		return "anon"
	case ClassFile:
		return "file"
	case ClassKernel:
		return "kernel"
	case ClassMlocked:
		return "mlocked"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// VirtMode selects the virtualisation technology (Table III: the KVM page
// fault path deadlocks below a minimal footprint, full virtualisation does
// not).
type VirtMode int

// Virtualisation modes.
const (
	// VirtKVM is hardware-assisted virtualisation (QEMU/KVM).
	VirtKVM VirtMode = iota + 1
	// VirtFull is full software virtualisation (plain QEMU TCG).
	VirtFull
)

// Backing services guest page accesses. Implementations own page residency
// and contents: the FluidMem monitor (internal/core) and the guest swap
// subsystem (internal/swap).
type Backing interface {
	// Touch makes the page containing addr resident and returns its 4 KB
	// frame along with the virtual time at which the access completes. The
	// returned slice is the live frame: writes through it are the guest
	// writing memory.
	Touch(now time.Duration, addr uint64, write bool) (data []byte, done time.Duration, err error)
	// Discard drops a page the guest freed (balloon inflation): its contents
	// are gone and its residency is released.
	Discard(addr uint64)
	// ResidentPages reports the VM's current local-DRAM footprint in pages.
	ResidentPages() int
	// Attach hands the backing the VM in front of it (New and Rebind). The
	// VM's TLB serves a page without calling Touch (a write only if the fill
	// was a write) until the backing calls v.Shootdown(page), when the page
	// stops mapping the frame Touch returned, or v.Flush(). A backing whose
	// hits are pure shoots down on unmap only; one whose hits keep state
	// (referenced bits) flushes on every Touch.
	Attach(v *VM)
}

// ClassAware is implemented by backings whose eviction policy depends on the
// page class (the swap subsystem). The FluidMem monitor deliberately does not
// implement it: full disaggregation treats all pages alike.
type ClassAware interface {
	SetClass(addr uint64, class PageClass)
}

// Config describes a VM.
type Config struct {
	// Name identifies the VM.
	Name string
	// MemBytes is the guest physical memory size visible at boot.
	MemBytes uint64
	// PID is the QEMU process ID on the hypervisor.
	PID int
	// Virt selects KVM or full virtualisation.
	Virt VirtMode
	// Base is the host virtual address where guest physical 0 is mapped.
	// Zero selects a default.
	Base uint64
}

// Segment is one allocated range of guest memory.
type Segment struct {
	Name  string
	Start uint64
	Bytes uint64
	Class PageClass

	vm *VM
}

// End returns the first address past the segment.
func (s *Segment) End() uint64 { return s.Start + s.Bytes }

// Pages returns the segment length in pages.
func (s *Segment) Pages() int { return int(s.Bytes / PageSize) }

// Addr returns the address at byte offset off, for use with VM access calls.
func (s *Segment) Addr(off uint64) uint64 { return s.Start + off }

// tlbMaxEntries caps the VM's direct-mapped TLB, indexed by page number: it
// covers the guest's allocation, rounded up to a power of two, up to 16 MiB.
const tlbMaxEntries = 4096

// tlbEntry maps a page to its frame while gen is the VM's generation. tag is
// the page's address with bit 0 set when the fill was a write, and the frame
// is an array pointer, so an entry is 24 bytes.
type tlbEntry struct {
	tag   uint64
	frame *[PageSize]byte
	gen   uint64
}

// VM is one simulated guest.
type VM struct {
	cfg     Config
	backing Backing

	// allocated guest memory, watermark allocator.
	segments []*Segment
	next     uint64
	limit    uint64

	// tlb caches the frames the backing returned (see Backing.Attach); an
	// entry is valid only while its gen is gen, so Flush is one increment.
	tlb []tlbEntry
	gen uint64

	// stats
	reads, writes uint64
}

// New creates a VM wired to its memory backing.
func New(cfg Config, backing Backing) (*VM, error) {
	if cfg.Base == 0 {
		cfg.Base = 0x7f00_0000_0000
	}
	if cfg.MemBytes == 0 || cfg.MemBytes%PageSize != 0 || cfg.Base+cfg.MemBytes < cfg.Base {
		return nil, fmt.Errorf("vm: memory size %d must be a positive multiple of the page size that fits above %#x", cfg.MemBytes, cfg.Base)
	}
	if cfg.Virt == 0 {
		cfg.Virt = VirtKVM
	}
	if backing == nil {
		return nil, errors.New("vm: nil backing")
	}
	v := &VM{
		cfg:     cfg,
		backing: backing,
		next:    cfg.Base,
		limit:   cfg.Base + cfg.MemBytes,
		tlb:     make([]tlbEntry, 1),
		gen:     1,
	}
	backing.Attach(v)
	return v, nil
}

// Flush invalidates every TLB entry.
func (v *VM) Flush() { v.gen++ }

// Shootdown invalidates the TLB's entry for page, a page address, if it
// holds one (INVLPG).
func (v *VM) Shootdown(page uint64) {
	if e := &v.tlb[page/PageSize&uint64(len(v.tlb)-1)]; e.tag&^1 == page {
		e.gen = 0
	}
}

// Config returns the VM's configuration.
func (v *VM) Config() Config { return v.cfg }

// Rebind switches the VM's memory backing — the destination monitor taking
// over fault handling after a live migration. Allocations and guest state
// are preserved; the fast-path cache is invalidated. Class tags are replayed
// into class-aware backings.
func (v *VM) Rebind(backing Backing) error {
	if backing == nil {
		return errors.New("vm: rebind to nil backing")
	}
	v.backing = backing
	v.Flush()
	backing.Attach(v)
	if ca, ok := backing.(ClassAware); ok {
		for _, seg := range v.segments {
			for addr := seg.Start; addr < seg.End(); addr += PageSize {
				ca.SetClass(addr, seg.Class)
			}
		}
	}
	return nil
}

// Backing returns the VM's memory backing.
func (v *VM) Backing() Backing { return v.backing }

// MemBytes reports current guest physical memory (grows with hotplug).
func (v *VM) MemBytes() uint64 { return v.limit - v.cfg.Base }

// FreeBytes reports unallocated guest memory.
func (v *VM) FreeBytes() uint64 { return v.limit - v.next }

// ResidentPages reports the VM's local-DRAM footprint.
func (v *VM) ResidentPages() int { return v.backing.ResidentPages() }

// Alloc reserves a page-aligned segment of guest memory for a workload or OS
// component, tagging its pages with class for class-aware backings.
func (v *VM) Alloc(name string, bytes uint64, class PageClass) (*Segment, error) {
	bytes = (bytes + PageSize - 1) &^ uint64(PageSize-1)
	if bytes == 0 {
		return nil, fmt.Errorf("vm: zero-size allocation %q", name)
	}
	if v.next+bytes > v.limit {
		return nil, fmt.Errorf("%w: %q needs %d bytes, %d free", ErrOutOfMemory, name, bytes, v.FreeBytes())
	}
	seg := &Segment{Name: name, Start: v.next, Bytes: bytes, Class: class, vm: v}
	v.next += bytes
	v.segments = append(v.segments, seg)
	// The TLB grows to cover the allocation. Doubling it keeps every entry:
	// of its two copies, the one outside its slot can match no page.
	for len(v.tlb) < tlbMaxEntries && uint64(len(v.tlb))*PageSize < v.next-v.cfg.Base {
		v.tlb = slices.Concat(v.tlb, v.tlb)
	}
	if ca, ok := v.backing.(ClassAware); ok {
		for addr := seg.Start; addr < seg.End(); addr += PageSize {
			ca.SetClass(addr, class)
		}
	}
	return seg, nil
}

// Hotplug adds bytes of guest physical memory (QEMU memory hotplug, §III).
// The new range becomes allocatable immediately; the backing's registered
// region must already cover it or be extended by the caller (the machine
// wiring in the public API handles this).
func (v *VM) Hotplug(bytes uint64) error {
	if bytes == 0 || bytes%PageSize != 0 {
		return fmt.Errorf("vm: hotplug size %d must be a positive multiple of the page size", bytes)
	}
	v.limit += bytes
	return nil
}

// Touch services a guest access to addr, returning the page frame and the
// completion time.
func (v *VM) Touch(now time.Duration, addr uint64, write bool) ([]byte, time.Duration, error) {
	if addr < v.cfg.Base || addr >= v.next {
		return nil, now, fmt.Errorf("%w: %#x", ErrBadAddress, addr)
	}
	page := addr &^ uint64(PageSize-1)
	tag := page
	if write {
		v.writes++
		tag |= 1
	} else {
		v.reads++
	}
	// Fast path: a TLB hit the backing has not invalidated, filled by an
	// access of this kind or by a write.
	e := &v.tlb[page/PageSize&uint64(len(v.tlb)-1)]
	if (e.tag == tag || e.tag == page|1) && e.gen == v.gen {
		return e.frame[:], now, nil
	}
	data, done, err := v.backing.Touch(now, addr, write)
	if err != nil {
		return nil, done, err
	}
	*e = tlbEntry{tag: tag, frame: (*[PageSize]byte)(data), gen: v.gen}
	return data, done, nil
}

// Read64 reads the 8-byte word at addr.
func (v *VM) Read64(now time.Duration, addr uint64) (uint64, time.Duration, error) {
	off := addr & (PageSize - 1)
	if off+8 > PageSize {
		return 0, now, fmt.Errorf("vm: unaligned word access straddles pages at %#x", addr)
	}
	data, done, err := v.Touch(now, addr, false)
	if err != nil {
		return 0, done, err
	}
	return binary.LittleEndian.Uint64(data[off : off+8]), done, nil
}

// Write64 writes the 8-byte word at addr.
func (v *VM) Write64(now time.Duration, addr uint64, value uint64) (time.Duration, error) {
	off := addr & (PageSize - 1)
	if off+8 > PageSize {
		return now, fmt.Errorf("vm: unaligned word access straddles pages at %#x", addr)
	}
	data, done, err := v.Touch(now, addr, true)
	if err != nil {
		return done, err
	}
	binary.LittleEndian.PutUint64(data[off:off+8], value)
	return done, nil
}

// AccessCounts reports total guest reads and writes.
func (v *VM) AccessCounts() (reads, writes uint64) { return v.reads, v.writes }

// Segments returns the allocated segments.
func (v *VM) Segments() []*Segment {
	out := make([]*Segment, len(v.segments))
	copy(out, v.segments)
	return out
}
