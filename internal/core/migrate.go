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

// Migration errors.
var (
	// ErrNotQuiesced reports an export attempted with writes still queued.
	ErrNotQuiesced = errors.New("core: monitor not quiesced")
	// ErrPartitionTaken reports an import whose partition is already owned.
	ErrPartitionTaken = errors.New("core: partition already registered here")
)

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
// store, the write list is drained, and the VM's regions are unregistered.
// The partition is *not* released — its pages are live and ownership moves
// with the returned image.
func (m *Monitor) ExportVM(now time.Duration, pid int) (*VMImage, time.Duration, error) {
	part, ok := m.pages.partOf(pid)
	if !ok {
		return nil, now, fmt.Errorf("%w: %d", ErrUnknownPID, pid)
	}
	img := &VMImage{PID: pid, Partition: part}
	// gone lists the regions the descriptor has let go of. Their page state
	// goes after the Drain below, once nothing of them is queued or pooled;
	// an export that fails first discards their queued writes and pooled
	// copies, which no entry would name once the regions are gone (the VM
	// cannot run here any more). Only a write in flight outlives its region.
	var gone []VMRegion
	letGo := func(failed bool) {
		for _, r := range gone {
			for addr := r.Start; failed && addr < r.Start+r.Length; addr += PageSize {
				key := kvstore.MakeKey(addr, part)
				m.wb.DiscardQueued(key)
				if m.tier != nil {
					m.tier.drop(key)
				}
			}
			m.pages.dropRegion(r.Start)
		}
	}
	var err error
	for _, region := range m.fd.Regions() {
		if region.PID != pid {
			continue
		}
		img.Regions = append(img.Regions, VMRegion{Start: region.Start, Length: region.Length})
		// Evict this region's resident pages (pause-and-push, the brief
		// stop-and-copy phase of post-copy migration).
		for addr := region.Start; addr < region.End(); addr += PageSize {
			if !m.lru.Contains(addr) {
				continue
			}
			m.lru.Remove(addr)
			m.stats.Evictions++
			shared := m.fd.PageShared(addr)
			data, done, rerr := m.fd.Remap(now, addr, false)
			if rerr != nil {
				letGo(true)
				return nil, now, fmt.Errorf("core: export remap %#x: %w", addr, rerr)
			}
			now = done
			// The export ships owned frames only: a copy of a shared page,
			// zeroes for a zero-COW one. It is off the data plane, so it
			// asks nothing of the store's re-put.
			if shared || data == nil {
				data = m.fd.PrivateCopy(data)
			}
			if now, err = m.wb.Enqueue(now, kvstore.MakeKey(addr, part), data, true); err != nil {
				letGo(true)
				return nil, now, fmt.Errorf("core: export enqueue %#x: %w", addr, err)
			}
		}
		for addr := region.Start; addr < region.End(); addr += PageSize {
			if m.pages.seen(addr) {
				img.Seen = append(img.Seen, addr)
				m.pages.clearSeen(addr)
			}
			if m.wb.TakeZero(kvstore.MakeKey(addr, part)) {
				img.Zero = append(img.Zero, addr)
			}
		}
		m.fd.Unregister(region)
		gone = append(gone, VMRegion{Start: region.Start, Length: region.Length})
	}
	// The VM's pages parked in the compressed tier must also reach the
	// store: the destination hypervisor cannot see this machine's local pool.
	// Other VMs' pooled pages stay.
	if m.tier != nil {
		if now, err = m.tier.drainTo(now, m.wb, part); err != nil {
			letGo(true)
			return nil, now, fmt.Errorf("core: export compressed tier: %w", err)
		}
	}
	// Quiesce: all exported pages must be durable in the store before the
	// destination may fault on them.
	if now, err = m.wb.Drain(now); err != nil {
		letGo(true)
		return nil, now, fmt.Errorf("core: export drain: %w", err)
	}
	letGo(false)
	return img, now, nil
}

// ImportVM adopts a migrated VM: regions are registered under the image's
// existing partition and the seen set is installed, so first accesses fault
// pages in from the store — post-copy semantics, no bulk copy.
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
