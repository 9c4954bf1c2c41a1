package fluidmem

import (
	"io"
	"time"

	"fluidmem/internal/arbiter"
	"fluidmem/internal/core"
	"fluidmem/internal/core/resilience"
	"fluidmem/internal/hotset"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/trace"
)

// Tracer collects virtual-time events and per-phase latency histograms from
// the fault pipeline. Pass one in MachineConfig.Tracer; read it back through
// Machine.Stats (histogram rows) or Machine.WriteTrace (Chrome trace JSON).
// Tracing is pure observation: same seed, same simulated results, traced or
// not.
type Tracer = trace.Tracer

// NewTracer returns a tracer. keepEvents retains the full event log (needed
// for WriteTrace); false keeps only the histograms — the cheap mode for
// long runs that want percentiles without an event log in memory.
func NewTracer(keepEvents bool) *Tracer { return trace.New(keepEvents) }

// MergedWorkers is the PhaseLatency.Worker value of the row that merges a
// phase's histogram across all workers.
const MergedWorkers = trace.MergedWorker

// Counter-set aliases: the stable public names for the per-layer counter
// structs that previously had to be imported from internal packages.
type (
	// MonitorCounters are the fault-handler counters (faults, first-touch,
	// remote reads, steals, evictions, ...).
	MonitorCounters = core.Stats
	// WritebackCounters are the write-back engine counters (flushes,
	// coalesced re-evictions, zero-bitmap activity).
	WritebackCounters = core.WritebackStats
	// ResilienceCounters are the fault-handling policy layer's intervention
	// counters (retries, failovers, degraded stalls).
	ResilienceCounters = resilience.Stats
	// StoreCounters are the key-value backend traffic counters.
	StoreCounters = kvstore.Stats
	// StoreHealth is the resilience layer's backend health signal.
	StoreHealth = resilience.Health
	// CompressCounters are the compressed-tier counters.
	CompressCounters = core.CompressStats
	// PhaseLatency is one per-phase latency histogram row: count and
	// p50/p90/p99/max in virtual time, per worker or merged (Worker ==
	// trace.MergedWorker, i.e. -1).
	PhaseLatency = trace.PhaseStats
	// HotsetParams sizes the ghost-LRU working-set estimator
	// (MachineConfig.Hotset).
	HotsetParams = hotset.Params
	// HotsetCounters is the estimator's snapshot: fault/ghost-hit/eviction
	// counters plus the miss-ratio curve beyond the resident capacity.
	HotsetCounters = hotset.Snapshot
	// ArbiterCounters are the host arbiter's cumulative epoch counters
	// (moves, page flow, predicted vs realized fault savings).
	ArbiterCounters = arbiter.Stats
)

// DefaultHotsetParams sizes an estimator for a machine with the given local
// buffer capacity in pages: the ghost list shadows one full capacity's worth
// of evictions in 16 curve buckets.
func DefaultHotsetParams(lruCapacityPages int) HotsetParams {
	return hotset.DefaultParams(lruCapacityPages)
}

// Stats is the machine's aggregated telemetry snapshot: every layer's
// counters plus the tracer's phase-latency histograms behind one call, so
// tools and examples no longer reach into internal packages. Pointer fields
// are nil when the corresponding subsystem is disabled or absent (e.g.
// Monitor in ModeSwap, Resilience without a policy, Phases without a
// tracer).
type Stats struct {
	// Now is the virtual clock at snapshot time.
	Now time.Duration
	// ResidentPages is the guest's local-DRAM footprint in pages.
	ResidentPages int
	// FootprintLimit is the monitor's LRU capacity in pages (0 in ModeSwap).
	FootprintLimit int
	// Workers is the fault-pipeline width (0 in ModeSwap).
	Workers int

	// Monitor holds the fault-handler counters (nil in ModeSwap).
	Monitor *MonitorCounters
	// Writeback holds the write-back engine counters (nil in ModeSwap).
	Writeback *WritebackCounters
	// Store holds backend traffic counters (nil in ModeSwap).
	Store *StoreCounters
	// WPFaults counts clean-tracking write-protect faults (CleanPageDrop).
	WPFaults uint64

	// Resilience and Health are non-nil when the resilience policy is on.
	Resilience *ResilienceCounters
	Health     *StoreHealth
	// Compress is non-nil when the compressed tier is enabled.
	Compress *CompressCounters

	// Hotset is non-nil when the ghost-LRU estimator is attached; WSSPages
	// is then its 90th-percentile working-set estimate (pages the guest
	// would need resident to absorb 90% of the observed re-reference
	// faults).
	Hotset   *HotsetCounters
	WSSPages int

	// Phases holds the tracer's per-phase latency histogram rows, sorted by
	// phase then worker with each phase's merged row first. Nil without a
	// tracer.
	Phases []PhaseLatency
}

// Stats returns the machine's aggregated telemetry snapshot.
func (m *Machine) Stats() Stats {
	st := Stats{
		Now:           m.now,
		ResidentPages: m.vm.ResidentPages(),
	}
	if m.monitor == nil {
		return st
	}
	mon := m.monitor.Stats()
	wb := m.monitor.WritebackStats()
	store := m.store.Stats()
	st.FootprintLimit = m.monitor.FootprintLimit()
	st.Workers = m.monitor.Workers()
	st.Monitor = &mon
	st.Writeback = &wb
	st.Store = &store
	st.WPFaults = m.monitor.WPFaults()
	if rs, ok := m.monitor.ResilienceStats(); ok {
		st.Resilience = &rs
	}
	if h, ok := m.monitor.StoreHealth(); ok {
		st.Health = &h
	}
	if cs, ok := m.monitor.CompressStats(); ok {
		st.Compress = &cs
	}
	if hs := m.monitor.Hotset(); hs != nil {
		snap := hs.Snapshot()
		st.Hotset = &snap
		st.WSSPages = snap.WSSEstimate(m.monitor.FootprintLimit(), 90)
	}
	st.Phases = m.Tracer().Snapshot()
	return st
}

// Tracer returns the tracer threaded through the machine's fault pipeline,
// nil when tracing is disabled (a nil *Tracer is safe to call).
func (m *Machine) Tracer() *Tracer {
	if m.monitor == nil {
		return m.cfg.Tracer
	}
	return m.monitor.Tracer()
}

// WriteTrace emits the machine's event log in Chrome trace event format
// (load it in chrome://tracing or Perfetto). The tracer must have been
// created with keepEvents; without a tracer an empty trace is written.
func (m *Machine) WriteTrace(w io.Writer) error {
	return m.Tracer().WriteChromeTrace(w)
}
