package core

import (
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/core/resilience"
	"fluidmem/internal/hotset"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/stats"
	"fluidmem/internal/trace"
	"fluidmem/internal/uffd"
	"fluidmem/internal/vm"
)

// PageSize is the fault-handling granularity.
const PageSize = uffd.PageSize

// Errors.
var (
	// ErrUnknownPID reports fault traffic for an unregistered VM.
	ErrUnknownPID = errors.New("core: PID has no registered partition")
	// ErrBadConfig reports an invalid monitor configuration.
	ErrBadConfig = errors.New("core: invalid configuration")
)

// Stats counts monitor activity. The monitor keeps one set of counters,
// incremented in caller event order, so every total is identical for every
// worker count — except InFlightWaits, which counts a virtual-time race (a
// fault arriving while its page's write is still in flight) and is therefore
// legitimately timing-dependent.
type Stats struct {
	// Faults is total userfaultfd events handled.
	Faults uint64
	// FirstTouch counts faults resolved with the zero page.
	FirstTouch uint64
	// RemoteReads counts faults resolved by a store read.
	RemoteReads uint64
	// Steals counts faults resolved from the pending write list.
	Steals uint64
	// InFlightWaits counts faults that had to wait for an in-flight write.
	InFlightWaits uint64
	// Evictions counts pages pushed out of the LRU list.
	Evictions uint64
	// SyncWrites counts evictions written synchronously (AsyncWrite off).
	SyncWrites uint64
	// Flushes counts write-list batch flushes.
	Flushes uint64
	// Prefetches counts pages pulled in ahead of demand (PrefetchPages > 0).
	Prefetches uint64
	// ZeroElided counts evictions elided into the zero bitmap instead of a
	// store write (ElideZeroPages). Deliberately separate from SyncWrites
	// and Flushes: an elided eviction causes no store traffic at all.
	ZeroElided uint64
	// CleanDropped counts evictions dropped because the victim was never
	// written since its store-backed install (CleanPageDrop) — the store
	// copy is current, so no write is needed.
	CleanDropped uint64
	// ZeroRefills counts re-faults of zero-elided pages resolved with
	// UFFDIO_ZEROPAGE instead of a store read.
	ZeroRefills uint64
}

// Monitor is the FluidMem user-space page-fault handler. One monitor serves
// all VMs on a hypervisor: its LRU capacity bounds their combined local
// footprint (§V-A). It implements vm.Backing so a VM plugs into it directly.
//
// The implementation is split into two halves, Clio-style:
//
//   - The data plane (dataplane.go) is the per-fault path — fault decode,
//     worker dispatch, LRU touch, store read, write-list append. After a
//     short warm-up it runs without heap allocation or hashing: page
//     frames and batch buffers come from pools, per-page state is indexed
//     in the region's page table, and the nil-tracer / nil-hotset fast
//     paths cost nothing.
//   - The control plane (controlplane.go) is everything slow or rare —
//     registration, teardown, resize, drain, stats capture — and may
//     allocate freely.
//
// Both run on the simulation's one goroutine: a control call happens between
// two faults, never during one, so the monitor holds no lock and no atomic.
type Monitor struct {
	cfg  Config
	fd   *uffd.FD
	rng  *clock.Rand
	prof *Profiler
	// tr receives trace events and phase-latency observations; nil (the
	// default) disables tracing with no behavioural difference.
	tr *trace.Tracer
	// hot receives fault/evict observations for working-set estimation;
	// nil (the default) disables it with no behavioural difference.
	hot *hotset.Tracker

	// pages is the per-page state of every registered region — seen and
	// zero marks, LRU nodes, pending and in-flight writes, pooled copies —
	// plus each region's owner and partition; lru, wb and tier are views
	// over it.
	pages *pageTable
	lru   *lruList
	wb    *writeback
	tier  *compressedTier // nil unless cfg.Compress is set

	registry     kvstore.Registry
	hypervisorID string

	// workers is the fault-pipeline width (>= 1) and workerFree[w] is when
	// worker w finishes its current work: a fault is serialised only behind
	// the worker that owns its page (workerOf), so faults on different
	// workers overlap in virtual time. With one worker this degenerates to
	// the serial monitor's single event loop. The width touches nothing
	// else — one LRU list, one write list, one Stats — apart from the
	// worker id on trace events.
	workers    int
	workerFree []time.Duration

	// storeLocal caches whether the backend is on-hypervisor (no RPC stack),
	// storeReput whether it takes its own read buffers back (kvstore.Reput).
	// storeTake is the store when a write fault takes its read buffer
	// (Reput.Take), nil otherwise: only under AsyncWrite, whose write-back
	// hands the taken frame back through MultiPut. A write-through Put
	// copies, so a taken buffer would move from the store's spares into the
	// descriptor's pool on every write, and the store would allocate one.
	storeLocal bool
	storeReput bool
	storeTake  kvstore.Reput
	// resilient is non-nil when cfg.Resilience routed the store through the
	// fault-handling policy layer; it exposes health and counters.
	resilient *resilience.Store

	// scratch holds the data plane's reusable buffers (see arena.go).
	scratch dataArena

	stats Stats
	// faultCost sums every resolved fault's end-to-end latency. It is virtual
	// time, so it moves with the width: an accessor, not a Stats field
	// (shardtest compares Stats across widths). faultLatencies optionally
	// hands the same samples, one by one, to a single consumer.
	faultCost      time.Duration
	faultLatencies func(time.Duration)
	// faultHist holds every resolved fault's span, resume minus event
	// delivery: the FAULT span a tracer carries, kept with or without one.
	faultHist stats.Histogram
}

var (
	_ vm.Backing          = (*Monitor)(nil)
	_ vm.FootprintLimiter = (*Monitor)(nil)
)

// NewMonitor builds a monitor. registry may be nil, in which case a local
// (single-hypervisor) partition registry is used.
func NewMonitor(cfg Config, registry kvstore.Registry, hypervisorID string) (*Monitor, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("%w: nil store", ErrBadConfig)
	}
	if cfg.LRUCapacity < 1 {
		return nil, fmt.Errorf("%w: LRU capacity %d < 1", ErrBadConfig, cfg.LRUCapacity)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("%w: %d workers", ErrBadConfig, cfg.Workers)
	}
	if registry == nil {
		registry = kvstore.NewLocalRegistry()
	}
	if hypervisorID == "" {
		hypervisorID = "hypervisor-0"
	}
	// The resilience layer wraps the store before anything else captures it,
	// so the fault path, the writeback engine, and teardown deletes all
	// route through the policy.
	var res *resilience.Store
	if cfg.Resilience != nil {
		res = resilience.Wrap(cfg.Store, *cfg.Resilience, cfg.Seed+0x7e57)
		res.SetTracer(cfg.Trace)
		cfg.Store = res
	}
	local := false
	if l, ok := cfg.Store.(kvstore.Local); ok {
		local = l.Local()
	}
	reput := false
	var take kvstore.Reput
	if r, ok := cfg.Store.(kvstore.Reput); ok {
		reput = r.Reput()
		if reput && cfg.AsyncWrite {
			take = r
		}
	}
	if cfg.Compress != nil && cfg.Compress.PoolBytes < PageSize {
		return nil, fmt.Errorf("%w: compressed pool smaller than a page", ErrBadConfig)
	}
	workers := max(cfg.Workers, 1) // 0 is the default: the serial monitor
	fd := uffd.New(cfg.UFFD, cfg.Seed)
	fd.SetTracer(cfg.Trace, workers)
	pages := newPageTable()
	m := &Monitor{
		storeLocal:   local,
		storeReput:   reput,
		storeTake:    take,
		resilient:    res,
		cfg:          cfg,
		fd:           fd,
		rng:          clock.NewRand(cfg.Seed + 0x5151),
		prof:         new(Profiler),
		tr:           cfg.Trace,
		hot:          cfg.Hotset,
		workers:      workers,
		workerFree:   make([]time.Duration, workers),
		pages:        pages,
		lru:          newLRU(pages),
		wb:           newWriteback(pages, cfg.Store, cfg.WriteBatchSize, workers, cfg.Trace),
		registry:     registry,
		hypervisorID: hypervisorID,
	}
	// When the write-back engine is done with a buffer (flushed, coalesced
	// away, cancelled) the frame returns to the descriptor's pool: frames
	// circulate VM → write list → pool → VM without touching the heap.
	m.wb.setRecycle(fd.Recycle)
	if cfg.Compress != nil {
		m.tier = newCompressedTier(pages, *cfg.Compress, cfg.Seed+0x7a7a)
	}
	return m, nil
}
