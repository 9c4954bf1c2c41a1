package core

import (
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/kvstore"
)

// This file implements post-copy VM migration over the disaggregated store.
// The paper (§VII) observes that live migration and memory disaggregation
// are complementary: FluidMem already keeps any page of a VM in a key-value
// store reachable from every hypervisor, so "moving" a VM is metadata-only —
// evict the source's resident pages, hand the page-tracking state to the
// destination monitor, and let pages fault back in on demand, exactly like
// QEMU's userfaultfd-based post-copy migration but with the store as the
// transfer channel.
//
// A VM leaves the monitor the way a page does: the export evicts through the
// one eviction and drains the VM's writes, and only then lets the VM go
// through the release walk teardown uses, so a failed export changes nothing.

// ErrPartitionTaken reports an import whose partition is already owned.
var ErrPartitionTaken = errors.New("core: partition already registered here")

// VMImage is the metadata handed from source to destination monitor: the
// page contents themselves never travel — they are already in the store.
type VMImage struct {
	// PID identifies the VM process (preserved across the migration).
	PID int
	// Partition is the VM's virtual partition in the store.
	Partition kvstore.PartitionID
	// Regions lists the registered ranges.
	Regions []VMRegion
	// Seen lists pages the monitor has tracked; on the destination these
	// resolve from the store rather than the zero page.
	Seen []uint64
	// Zero lists the seen pages elided as all zeroes (their store copy is stale).
	Zero []uint64
}

// VMRegion is one registered range.
type VMRegion struct {
	Start  uint64
	Length uint64
}

// MetadataBytes estimates the transfer size of the image — the only data
// that crosses the network during migration.
func (img *VMImage) MetadataBytes() int {
	return 8*len(img.Seen) + 8*len(img.Zero) + 16*len(img.Regions) + 16
}

// ExportVM prepares pid for migration: every resident page is evicted to the
// store, the VM's writes are drained, and its regions are unregistered. The
// partition is *not* released — its pages are live and ownership moves with
// the returned image. An export that fails changes nothing the VM needs: it
// stays registered and runnable here, and a retry may succeed.
func (m *Monitor) ExportVM(now time.Duration, pid int) (*VMImage, time.Duration, error) {
	part, ok := m.pages.partOf(pid)
	if !ok {
		return nil, now, fmt.Errorf("%w: %d", ErrUnknownPID, pid)
	}
	img := &VMImage{PID: pid, Partition: part}
	// Pause and push, the brief stop-and-copy phase of post-copy migration:
	// each resident page takes the one eviction path.
	var err error
	for _, r := range m.fd.Regions() {
		if r.PID != pid {
			continue
		}
		img.Regions = append(img.Regions, VMRegion{Start: r.Start, Length: r.Length})
		for addr := r.Start; addr < r.End(); addr += PageSize {
			if !m.lru.Contains(addr) {
				continue
			}
			if now, err = m.evict(now, addr, false, true); err != nil {
				return nil, now, fmt.Errorf("core: export evict: %w", err)
			}
		}
	}
	// The VM's pages parked in the compressed tier must also reach the
	// store: the destination hypervisor cannot see this machine's local pool.
	if m.tier != nil {
		if now, err = m.tier.drainTo(now, part, m.enqueue); err != nil {
			return nil, now, fmt.Errorf("core: export compressed tier: %w", err)
		}
	}
	// Quiesce: the VM's pages must be durable in the store before the
	// destination may fault on them. Other VMs' writes keep their place.
	if now, err = m.wb.drain(now, part); err != nil {
		return nil, now, fmt.Errorf("core: export drain: %w", err)
	}
	m.releaseRegions(pid, func(addr uint64, _ kvstore.Key, zero bool) {
		img.Seen = append(img.Seen, addr)
		if zero {
			img.Zero = append(img.Zero, addr)
		}
	})
	return img, now, nil
}

// ImportVM adopts a migrated VM: regions are registered under the image's
// existing partition and the seen set is installed, so first accesses fault
// pages in from the store — post-copy semantics, no bulk copy. An import
// that fails unregisters what it registered; the partition stays the
// source's.
func (m *Monitor) ImportVM(now time.Duration, img *VMImage) (time.Duration, error) {
	if img == nil || len(img.Regions) == 0 {
		return now, errors.New("core: empty VM image")
	}
	if _, taken := m.pages.partOf(img.PID); taken {
		return now, fmt.Errorf("%w: pid %d", ErrPartitionTaken, img.PID)
	}
	if err := m.registry.Adopt(img.Partition); err != nil {
		return now, fmt.Errorf("core: adopt partition %d: %w", img.Partition, err)
	}
	for _, r := range img.Regions {
		if _, err := m.fd.Register(r.Start, r.Length, img.PID); err != nil {
			m.releaseRegions(img.PID, nil) // no page is seen yet
			return now, fmt.Errorf("core: import register: %w", err)
		}
		m.pages.addRegion(r.Start, r.Length, img.PID, img.Partition)
	}
	for _, addr := range img.Seen {
		m.pages.setSeen(addr)
	}
	for _, addr := range img.Zero {
		m.wb.NoteZero(kvstore.MakeKey(addr, img.Partition))
	}
	// Metadata transfer cost: the seen set and region table cross the wire.
	now += transferCost(img.MetadataBytes())
	return now, nil
}

// transferCost models shipping the migration metadata over the datacenter
// network (~2 µs setup + ~0.35 ns/byte ≈ 23 Gb/s effective).
func transferCost(bytes int) time.Duration {
	return 2*time.Microsecond + time.Duration(bytes)*350*time.Nanosecond/1000
}
