// Package core implements the FluidMem monitor — the user-space page-fault
// handler that is the paper's primary contribution (§III–V). The monitor
// watches userfaultfd events for every registered VM, resolves first-touch
// faults with the zero page, fetches previously seen pages from a key-value
// store, and bounds local DRAM usage with a resizable LRU list whose
// evictions are pushed to remote memory asynchronously.
package core

import (
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/core/resilience"
	"fluidmem/internal/hotset"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/trace"
	"fluidmem/internal/uffd"
)

// Config parametrises a Monitor.
type Config struct {
	// Store is the remote-memory backend (RAMCloud, Memcached, DRAM).
	Store kvstore.Store
	// LRUCapacity bounds resident pages across all registered VMs. The list
	// is resizable at runtime (§III): shrinking it evicts immediately.
	LRUCapacity int

	// AsyncWrite picks how an eviction writes (§V-B): queued on the write
	// list, flushed in batches, or written through by a synchronous store
	// write on the fault critical path. The write list serves faults in
	// both modes: it also holds tier overflow and failed write-throughs.
	AsyncWrite bool
	// AsyncRead enables split reads (§V-B): the store read is issued first
	// and the eviction's UFFD_REMAP runs while the network waits. It governs
	// the windowless read only (see PrefetchPages).
	AsyncRead bool
	// WriteBatchSize is the write-list flush threshold (RAMCloud multi-write
	// batch).
	WriteBatchSize int
	// StealEnabled lets the fault handler resolve a fault directly from the
	// pending write list, shortcutting two network round trips (§V-B).
	// Without it, a fault on a queued page forces a flush and then reads.
	StealEnabled bool
	// EvictWithCopy replaces UFFD_REMAP eviction with a copy-out (ablation
	// A3: zero-copy remap vs copy + zap).
	EvictWithCopy bool
	// PrefetchPages, when positive, is the readahead window (extension;
	// ablation A6): a store-read fault carries the next N pages of its
	// region that are seen but not resident in the same amortised MultiGet
	// round trip as the demand page — batched remote reads, the standard
	// cure for per-page RTT overhead in the disaggregation literature — and
	// installs them after the guest wakes. Readahead is built on the split
	// read: a positive window selects the overlapped read whatever AsyncRead
	// says. Zero disables it, matching the paper's readahead-off
	// configuration.
	PrefetchPages int
	// Workers is the width of the fault pipeline (the paper's multi-threaded
	// handler, §V-B), reproduced in virtual time: each worker is a horizon,
	// the time it finishes its current work; a page belongs to the worker
	// uffd.WorkerOf names, and a fault waits only for that worker to be free.
	// The width is timing-only by construction — there is one LRU list, one
	// write list and one set of counters, so the logical operation sequence
	// (eviction victims, flush batches, store traffic) is identical for every
	// worker count, which the shardtest oracle harness asserts — so more
	// workers raise fault throughput without changing behaviour. 0 (the
	// default) or 1 is the serial monitor; a negative width is ErrBadConfig.
	Workers int
	// ElideZeroPages enables the write-path zero-page optimisation: an
	// evicted page whose contents are all zeroes is recorded in a zero
	// bitmap instead of being written to the store, and a later re-fault is
	// resolved with UFFDIO_ZEROPAGE instead of a store read — zero traffic
	// in both directions for zero pages (the paper's zero-page optimisation
	// applied to the eviction side). Elision decisions depend only on page
	// contents, so worker-count determinism is preserved.
	ElideZeroPages bool
	// CleanPageDrop enables dirty tracking via simulated write-protect
	// faults: a page installed from a durable store copy is write-protected;
	// the first guest write trips a WP fault that clears the protection. A
	// victim still protected at eviction was never written — its store copy
	// is current, so it is dropped with no store write at all. Pages whose
	// bytes the store does not durably hold (steals, compressed-tier hits,
	// zero refills) are never protected, so the drop is always safe.
	CleanPageDrop bool
	// Compress optionally enables the zswap-style compressed tier (§III's
	// page-compression customisation): evicted pages that compress well are
	// parked in a local pool and refault at decompression speed instead of
	// a network round trip. Nil disables the tier.
	Compress *CompressParams
	// Resilience optionally routes every store operation (fault reads,
	// writeback, teardown deletes) through the fault-handling policy layer:
	// bounded retry with backoff, per-op deadlines, replica failover, and a
	// degraded mode that turns sustained backend failure into stall time
	// plus a health signal instead of a hard error. Nil disables the layer
	// (a backend error aborts the fault, the seed behaviour).
	Resilience *resilience.Policy

	// Trace optionally receives virtual-time events and phase-latency
	// observations from the whole fault pipeline (monitor, write-back
	// engine, UFFD ops, resilience layer). Tracing is pure observation: it
	// draws no randomness and charges no virtual time, so results are
	// bit-for-bit identical with tracing on or off. Nil disables it at zero
	// cost.
	Trace *trace.Tracer

	// Hotset optionally attaches a ghost-LRU working-set estimator: every
	// fault and eviction is reported to it, building the miss-ratio curve
	// the host arbiter prices grants against. Like Trace it is pure
	// observation — zero virtual time, zero randomness — so results are
	// bit-for-bit identical with estimation on or off. Nil disables it.
	Hotset *hotset.Tracker

	// UFFD holds the simulated userfaultfd op costs.
	UFFD uffd.Params
	// MonitorOps holds the monitor's own bookkeeping costs.
	MonitorOps MonitorOpParams
	// Seed feeds the monitor's RNG.
	Seed uint64
}

// MonitorOpParams are the service times of the monitor's data-structure
// operations, calibrated to Table I.
type MonitorOpParams struct {
	// EventDispatch is the cost of the monitor waking from poll and reading
	// one event from the descriptor.
	EventDispatch clock.LatencyModel
	// HashLookup is the seen-pages hash probe (INSERT_PAGE_HASH_NODE:
	// 2.58 µs).
	HashLookup clock.LatencyModel
	// LRUInsert is INSERT_LRU_CACHE_NODE (2.87 µs).
	LRUInsert clock.LatencyModel
	// CacheUpdate is UPDATE_PAGE_CACHE (2.56 µs).
	CacheUpdate clock.LatencyModel
	// RPCOverhead is client-side CPU per synchronous remote operation
	// (request marshalling, transport doorbell) beyond the measured
	// READ_PAGE/WRITE_PAGE service time.
	RPCOverhead clock.LatencyModel
	// AsyncIssue is the cheaper top-half cost of posting an asynchronous
	// read: the request is prepared and handed to the transport without
	// waiting for completion processing (§V-B split reads).
	AsyncIssue clock.LatencyModel
	// EvictFinish is the tail of an interleaved eviction that must complete
	// before a new page can be installed at the freed frame: the REMAP's
	// TLB-shootdown acknowledgement plus the write-list append. It runs
	// inside the network-wait window (§V-B).
	EvictFinish clock.LatencyModel
	// ZeroScan is the cost of scanning a victim page for all-zero contents
	// (a 4 KiB compare against the zero page) on the eviction path, charged
	// only when ElideZeroPages is on.
	ZeroScan clock.LatencyModel
	// Resume is the cost of the faulting vCPU being rescheduled after wake.
	Resume clock.LatencyModel
}

// DefaultMonitorOps returns Table-I-calibrated costs.
func DefaultMonitorOps() MonitorOpParams {
	return MonitorOpParams{
		EventDispatch: clock.LatencyModel{Base: 4200 * time.Nanosecond, Jitter: 500 * time.Nanosecond},
		HashLookup:    clock.LatencyModel{Base: 2580 * time.Nanosecond, Jitter: 1200 * time.Nanosecond, TailProb: 0.01, TailExtra: 5 * time.Microsecond},
		LRUInsert:     clock.LatencyModel{Base: 2870 * time.Nanosecond, Jitter: 470 * time.Nanosecond},
		CacheUpdate:   clock.LatencyModel{Base: 2560 * time.Nanosecond, Jitter: 250 * time.Nanosecond},
		RPCOverhead:   clock.LatencyModel{Base: 5 * time.Microsecond, Jitter: 800 * time.Nanosecond},
		AsyncIssue:    clock.LatencyModel{Base: 1500 * time.Nanosecond, Jitter: 250 * time.Nanosecond},
		EvictFinish:   clock.LatencyModel{Base: 2 * time.Microsecond, Jitter: 400 * time.Nanosecond},
		ZeroScan:      clock.LatencyModel{Base: 400 * time.Nanosecond, Jitter: 80 * time.Nanosecond},
		Resume:        clock.LatencyModel{Base: 3 * time.Microsecond, Jitter: 400 * time.Nanosecond},
	}
}

// DefaultConfig returns a fully optimised monitor over the given store, as
// deployed in the paper's headline experiments.
func DefaultConfig(store kvstore.Store, lruCapacity int) Config {
	return Config{
		Store:          store,
		LRUCapacity:    lruCapacity,
		AsyncWrite:     true,
		AsyncRead:      true,
		WriteBatchSize: 32,
		StealEnabled:   true,
		UFFD:           uffd.DefaultParams(),
		MonitorOps:     DefaultMonitorOps(),
		Seed:           1,
	}
}

// BaselineConfig returns the unoptimised ("Default" row of Table II) monitor.
func BaselineConfig(store kvstore.Store, lruCapacity int) Config {
	cfg := DefaultConfig(store, lruCapacity)
	cfg.AsyncWrite = false
	cfg.AsyncRead = false
	cfg.StealEnabled = false
	return cfg
}
