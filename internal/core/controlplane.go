package core

// This file is the monitor's control plane: registration, teardown,
// resize, drain, stats capture, and the introspection surface. Everything
// here is slow-path — it may allocate, scan regions, and rebuild maps
// freely. It runs on the simulation's goroutine, between faults.

import (
	"fmt"
	"sort"
	"time"

	"fluidmem/internal/core/resilience"
	"fluidmem/internal/hotset"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/stats"
	"fluidmem/internal/trace"
	"fluidmem/internal/uffd"
)

// RegisterRange registers [start, start+length) for fault handling on behalf
// of the VM process pid, allocating the VM's virtual partition on first use.
// QEMU calls this when wrapping the guest memory allocation, and again for
// each hotplugged memory slot (§IV).
func (m *Monitor) RegisterRange(start, length uint64, pid int) (*uffd.Region, error) {
	region, err := m.fd.Register(start, length, pid)
	if err != nil {
		return nil, fmt.Errorf("core: register region: %w", err)
	}
	part, ok := m.pages.partOf(pid)
	if !ok {
		if part, err = m.registry.Allocate(m.hypervisorID, pid); err != nil {
			m.fd.Unregister(region)
			return nil, fmt.Errorf("core: allocate partition for pid %d: %w", pid, err)
		}
	}
	m.pages.addRegion(start, length, pid, part)
	return region, nil
}

// UnregisterVM tears down all regions of pid: resident pages are dropped,
// store contents deleted, and the partition released (VM shutdown, §V-A).
// Teardown is best-effort under backend failure: a failed delete (a leaked
// page in a crashed member) is remembered but does not abort the teardown —
// the partition is still unregistered and released, and the first delete
// error is reported at the end.
func (m *Monitor) UnregisterVM(now time.Duration, pid int) (time.Duration, error) {
	part, ok := m.pages.partOf(pid)
	if !ok {
		return now, fmt.Errorf("%w: %d", ErrUnknownPID, pid)
	}
	var firstErr error
	for _, region := range m.fd.Regions() {
		if region.PID != pid {
			continue
		}
		for addr := region.Start; addr < region.End(); addr += PageSize {
			if m.lru.Remove(addr) {
				m.fd.Drop(addr)
				m.epoch++
			}
			m.hot.Remove(addr)
			if m.pages.seen(addr) {
				m.pages.clearSeen(addr)
				key := kvstore.MakeKey(addr, part)
				if m.tier != nil {
					m.tier.drop(key)
				}
				// Cancel pending engine state so a later flush cannot
				// resurrect a deleted page in the store.
				m.wb.DiscardQueued(key)
				m.wb.DropZero(key)
				var err error
				if now, err = m.cfg.Store.Delete(now, key); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("core: delete page %#x: %w", addr, err)
				}
			}
		}
		m.fd.Unregister(region)
		m.pages.dropRegion(region.Start)
	}
	if err := m.registry.Release(part); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("core: release partition: %w", err)
	}
	return now, firstErr
}

// Discard implements vm.Backing: a balloon-freed page loses its contents.
func (m *Monitor) Discard(addr uint64) {
	addr = addr &^ uint64(PageSize-1)
	if m.lru.Remove(addr) {
		m.fd.Drop(addr)
		m.epoch++
	}
	// The page's contents are gone: it must leave the ghost list too, or a
	// later first touch of the same address would register as a re-reference
	// and inflate the working-set estimate.
	m.hot.Remove(addr)
	region := m.pages.region(addr)
	if m.pages.seen(addr) {
		m.pages.clearSeen(addr)
		if region != nil {
			// Asynchronous tombstone; timing is off any critical path.
			_, _ = m.cfg.Store.Delete(m.workerFree[m.workerOf(addr)], kvstore.MakeKey(addr, region.part))
		}
	}
	if region != nil {
		key := kvstore.MakeKey(addr, region.part)
		// A balloon-freed page's bytes must never reach the store:
		// cancel any queued write and drop any zero mark or tier copy.
		m.wb.DiscardQueued(key)
		m.wb.DropZero(key)
		if m.tier != nil {
			m.tier.drop(key)
		}
	}
}

// Resize changes the LRU capacity at runtime (§III: "the local memory buffer
// can be actively sized up or down"). Shrinking evicts immediately; the
// returned time covers the eviction work. This is the mechanism behind
// Table III's near-zero footprints. It is the one resize path: the host's
// planners, the machine's operator surface and the scenario engine all call
// it between faults.
func (m *Monitor) Resize(now time.Duration, capacity int) (time.Duration, error) {
	if capacity < 1 {
		return now, fmt.Errorf("%w: LRU capacity %d < 1", ErrBadConfig, capacity)
	}
	m.cfg.LRUCapacity = capacity
	t := now
	var err error
	for m.lru.Len() > capacity {
		if t, err = m.evictOne(t, false); err != nil {
			return t, err
		}
	}
	// Worker 0 is an arbitrary but fixed attribution: a resize is not caused
	// by any page address. The arg carries the new capacity in pages.
	m.tr.Emit(trace.EvResize, 0, uint64(capacity), now, t-now, "")
	return t, nil
}

// Hotset returns the attached working-set estimator (nil when disabled).
func (m *Monitor) Hotset() *hotset.Tracker { return m.hot }

// HotsetSnapshot copies the estimator's counters; the zero Snapshot when
// estimation is disabled.
func (m *Monitor) HotsetSnapshot() hotset.Snapshot { return m.hot.Snapshot() }

// Drain flushes the write list and waits for all in-flight writes —
// quiescing the monitor (tests, teardown, consistent snapshots).
func (m *Monitor) Drain(now time.Duration) (time.Duration, error) {
	return m.wb.Drain(now)
}

// ResidentPages implements vm.Backing.
func (m *Monitor) ResidentPages() int { return m.lru.Len() }

// FootprintLimit implements vm.FootprintLimiter.
func (m *Monitor) FootprintLimit() int { return m.cfg.LRUCapacity }

// Epoch implements vm.Backing.
func (m *Monitor) Epoch() uint64 { return m.epoch }

// Stats returns a snapshot of monitor counters.
func (m *Monitor) Stats() Stats { return m.stats }

// Workers reports the fault-pipeline width (>= 1).
func (m *Monitor) Workers() int { return m.workers }

// ResidentAddrs returns the sorted addresses of all currently resident
// pages — a stable snapshot for equivalence harnesses (shardtest): two
// monitors are resident-set-equal iff these slices are equal.
func (m *Monitor) ResidentAddrs() []uint64 {
	addrs := m.lru.Addrs()
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

// Profiler exposes the per-code-path latency profiler (§VI-C).
func (m *Monitor) Profiler() *Profiler { return m.prof }

// Tracer exposes the tracer threaded through the fault pipeline (nil when
// tracing is disabled).
func (m *Monitor) Tracer() *trace.Tracer { return m.tr }

// Partition reports the virtual partition assigned to pid.
func (m *Monitor) Partition(pid int) (kvstore.PartitionID, bool) {
	return m.pages.partOf(pid)
}

// SetFaultLatencySink registers a callback receiving every end-to-end fault
// latency (pmbench-style measurement hooks).
func (m *Monitor) SetFaultLatencySink(sink func(time.Duration)) {
	m.faultLatencies = sink
}

// FaultCost reports the sum of every resolved fault's end-to-end latency —
// what a sink installed at construction would have added up.
func (m *Monitor) FaultCost() time.Duration { return m.faultCost }

// FaultHistogram returns a copy of the histogram of every resolved fault's
// span, resume minus event delivery. It equals a tracer's merged FAULT
// histogram but needs no tracer: the host reads each tenant's SLO windows
// from it.
func (m *Monitor) FaultHistogram() stats.Histogram { return m.faultHist }

// WriteListLen reports pages awaiting flush (test hook).
func (m *Monitor) WriteListLen() int { return m.wb.QueuedLen() }

// WritebackStats reports the write-back engine's counters: flush batch
// sizes, coalesced re-evictions, zero-bitmap activity.
func (m *Monitor) WritebackStats() WritebackStats { return m.wb.Snapshot() }

// WPFaults reports guest writes that tripped the clean-tracking write
// protection (CleanPageDrop).
func (m *Monitor) WPFaults() uint64 { return m.fd.WPFaults() }

// PageCopies reports the 4 KiB host copies the descriptor has made (test
// hook; see uffd.FD.PageCopies): host work only, in no Stats field.
func (m *Monitor) PageCopies() uint64 { return m.fd.PageCopies() }

// StoreHealth reports the resilience layer's backend health signal; ok is
// false when the layer is disabled (cfg.Resilience == nil).
func (m *Monitor) StoreHealth() (resilience.Health, bool) {
	if m.resilient == nil {
		return resilience.Health{}, false
	}
	return m.resilient.Health(), true
}

// ResilienceStats reports the policy layer's intervention counters; ok is
// false when the layer is disabled.
func (m *Monitor) ResilienceStats() (resilience.Stats, bool) {
	if m.resilient == nil {
		return resilience.Stats{}, false
	}
	return m.resilient.ResilienceStats(), true
}

// ResilienceCounters exports the policy layer's counters as a named set
// (nil when the layer is disabled) — the surface fluidmemd and the chaos
// harness render.
func (m *Monitor) ResilienceCounters() *stats.Counters {
	if m.resilient == nil {
		return nil
	}
	return m.resilient.ResilienceStats().Counters()
}

// CompressStats reports the compressed tier's counters; ok is false when the
// tier is disabled.
func (m *Monitor) CompressStats() (CompressStats, bool) {
	if m.tier == nil {
		return CompressStats{}, false
	}
	return m.tier.stats, true
}

// PageResident reports whether the page containing addr is currently in the
// monitor's LRU list (operator/experiment introspection).
func (m *Monitor) PageResident(addr uint64) bool {
	return m.lru.Contains(addr &^ uint64(PageSize-1))
}
