package loadgen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	"fluidmem"
	"fluidmem/internal/clock"
	"fluidmem/internal/core"
	"fluidmem/internal/stats"
	"fluidmem/internal/workload/ycsb"
)

// Config drives one open-loop scenario run.
type Config struct {
	Scenario Scenario
	// Planner picks the host budget policy (default PlannerStatic).
	Planner Planner
	// Workers sets the fault-pipeline worker count per tenant machine
	// (0 = the monitor default). The determinism oracle sweeps this.
	Workers int
	// Seed drives every stream: arrivals, keys, machine seeds. Same seed,
	// same report, bit for bit.
	Seed uint64
	// RateScale multiplies every tenant's curve — the offered-load knob the
	// knee-of-curve experiment turns. 0 means 1.
	RateScale float64
	// Traced attaches tracers to every tenant machine so the run yields
	// logical digests and chrome traces. Pure observation.
	Traced bool
}

// TenantReport is one tenant's outcome.
type TenantReport struct {
	ID string `json:"tenant"`
	// Offered counts arrivals generated in the tenant's live window;
	// OfferedPerSec normalises by the scenario horizon. Open loop: every
	// offered op is eventually served, so Offered is also the completion
	// count — goodput, not throughput, is the saturation signal.
	Offered       uint64  `json:"offered_ops"`
	OfferedPerSec float64 `json:"offered_per_sec"`
	// Good counts ops whose sojourn (arrival → service completion, queueing
	// included) met the scenario's P99Target; GoodputPerSec normalises by
	// the horizon. Past the knee, offered keeps rising and goodput falls.
	Good          uint64  `json:"good_ops"`
	GoodputPerSec float64 `json:"goodput_per_sec"`
	// Sojourn percentiles over the tenant's ops, in virtual time.
	SojournP50  time.Duration `json:"sojourn_p50_ns"`
	SojournP99  time.Duration `json:"sojourn_p99_ns"`
	SojournMax  time.Duration `json:"sojourn_max_ns"`
	SojournMean time.Duration `json:"sojourn_mean_ns"`
	// QueueMax / QueueMean sample the tenant's queue depth (ops in system)
	// at each arrival instant.
	QueueMax  int     `json:"queue_max"`
	QueueMean float64 `json:"queue_mean"`
	// Faults / FaultCost are the tenant's page-fault count and summed
	// end-to-end fault latencies; SharePages its final budget share.
	Faults     uint64        `json:"faults"`
	FaultCost  time.Duration `json:"fault_cost_ns"`
	SharePages int           `json:"share_pages"`
	// SLO accounting from the host's epoch windows.
	SLOWindows    uint64 `json:"slo_windows"`
	SLOViolations uint64 `json:"slo_violations"`
}

// Report is one scenario run's outcome.
type Report struct {
	Scenario  string        `json:"scenario"`
	Planner   Planner       `json:"planner"`
	Workers   int           `json:"workers"`
	Seed      uint64        `json:"seed"`
	RateScale float64       `json:"rate_scale"`
	Horizon   time.Duration `json:"horizon_ns"`
	P99Target time.Duration `json:"p99_target_ns"`

	Tenants []TenantReport `json:"tenants"`

	// Aggregates across tenants. SojournP99 is the percentile of the merged
	// histogram, not a mean of means.
	Offered       uint64        `json:"offered_ops"`
	OfferedPerSec float64       `json:"offered_per_sec"`
	Good          uint64        `json:"good_ops"`
	GoodputPerSec float64       `json:"goodput_per_sec"`
	SojournP50    time.Duration `json:"sojourn_p50_ns"`
	SojournP99    time.Duration `json:"sojourn_p99_ns"`
	SojournMax    time.Duration `json:"sojourn_max_ns"`
	QueueMax      int           `json:"queue_max"`
	// Backlog is how far the busiest tenant clock ran past the horizon to
	// serve the offered load — zero when the system keeps up, and the
	// clearest single saturation signal.
	Backlog time.Duration `json:"backlog_ns"`
	// Epochs counts planner epochs; Moves the pages-moving decisions.
	Epochs uint64 `json:"epochs"`
	Moves  uint64 `json:"moves"`

	// TraceDigests holds each tenant machine's logical trace digest
	// (timing-independent event stream), present only on Traced runs. Equal
	// digests across worker counts prove the fault pipelines processed the
	// same logical event sequences.
	TraceDigests []uint64 `json:"trace_digests,omitempty"`

	// Digest fingerprints the run: an FNV-1a hash over every tenant's op
	// counts, sojourn histogram buckets, fault counts, final shares, and
	// the planner counters. Two runs with the same full config (scenario,
	// planner, seed, scale, workers) must produce equal digests — bitwise
	// repeatability. Across worker counts the logical fields (op counts,
	// faults, shares, TraceDigests) are invariant by the core pipeline's
	// contract; the virtual-time-derived fields the digest also covers
	// (sojourn buckets, fault cost) are only guaranteed to match where
	// batch composition does not shift with sharding — the scenariotest
	// oracle pins full-report equality at its exact configurations, and
	// elsewhere timing may drift by a store batch's amortization (see
	// core/shardtest: parallelism is timing-only).
	Digest uint64 `json:"digest"`
}

// engineTenant is one tenant's run state.
type engineTenant struct {
	scen    TenantScenario
	idx     int
	guest   *fluidmem.Tenant
	base    uint64
	gen     *keyGen
	arr     *Arrivals
	sojourn *stats.Histogram
	// pending holds completion times of ops in the tenant's system
	// (non-decreasing: service is serialized per machine). Its length at an
	// arrival instant is the queue depth. The queue is pending[head:],
	// compacted in place once over half the slice is dead, so a steady
	// window never reallocates.
	pending  []time.Duration
	head     int
	offered  uint64
	good     uint64
	queueMax int
	queueSum uint64
}

// Run executes one open-loop scenario and returns its report.
//
// The run is a single-threaded discrete-event simulation over
// clock.Scheduler: every tenant's arrival stream is pre-determined by
// (seed, curve, process) alone, so the sequence of guest operations — and
// therefore every planner decision, via the host's op-count epoch windows —
// is independent of service timing and of the worker count inside each
// machine's fault pipeline. That is what makes same-seed reports bitwise
// identical across Workers ∈ {1, 2, 4, 8}.
func Run(cfg Config) (*Report, error) {
	scen := cfg.Scenario
	if len(scen.Tenants) == 0 {
		return nil, fmt.Errorf("loadgen: scenario %q has no tenants", scen.Name)
	}
	if scen.Horizon <= 0 {
		return nil, fmt.Errorf("loadgen: scenario %q has no horizon", scen.Name)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	scale := cfg.RateScale
	if scale == 0 {
		scale = 1
	}
	if scale < 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("loadgen: rate scale %v is not a finite non-negative number", scale)
	}

	// Build the host: one machine per tenant on a DRAM-backed shared store,
	// planner per cfg. Per-machine worker counts are a pure performance
	// ablation inside the fault pipeline; they never change simulated state.
	specs := make([]fluidmem.TenantSpec, len(scen.Tenants))
	tracers := make([]*fluidmem.Tracer, len(scen.Tenants))
	for i, ts := range scen.Tenants {
		mc := fluidmem.MachineConfig{Backend: fluidmem.BackendDRAM, GuestMemory: 16 << 20}
		if cfg.Workers > 0 {
			core := core.DefaultConfig(nil, 0)
			core.Workers = cfg.Workers
			mc.Monitor = &core
		}
		if cfg.Traced {
			tracers[i] = fluidmem.NewTracer(true)
			mc.Tracer = tracers[i]
		}
		specs[i] = fluidmem.TenantSpec{
			ID:     ts.ID,
			VM:     mc,
			Policy: fluidmem.TenantPolicy{SLO: ts.Keys.SLO},
		}
	}
	// EpochOps is set under every planner: the static split runs the windows
	// too, for SLO accounting without rebalancing.
	hc := fluidmem.HostConfig{
		Tenants:         specs,
		TotalLocalPages: scen.TotalLocalPages,
		EpochOps:        scen.EpochOps,
		Planner:         cfg.Planner,
		Seed:            cfg.Seed,
	}
	if hc.EpochOps <= 0 {
		hc.EpochOps = 400
	}
	h, err := fluidmem.NewHost(hc)
	if err != nil {
		return nil, err
	}

	guests := h.Tenants()
	tenants := make([]*engineTenant, len(scen.Tenants))
	ord := new(sliceOrder) // the tenants' streams take turns
	tables := map[int]*ycsb.Zipfian{}
	for i, ts := range scen.Tenants {
		seg, err := guests[i].Machine().Alloc("openloop", uint64(ts.Keys.SpanPages)*fluidmem.PageSize)
		if err != nil {
			return nil, fmt.Errorf("loadgen: tenant %s: %w", ts.ID, err)
		}
		gen, err := newKeyGen(ts.Keys, sliceSeed(cfg.Seed, int64(i)*2+1), tables)
		if err != nil {
			return nil, fmt.Errorf("loadgen: tenant %s: %w", ts.ID, err)
		}
		to := scen.Horizon
		if ts.Death > 0 && ts.Death < to {
			to = ts.Death
		}
		et := &engineTenant{
			scen:  ts,
			idx:   i,
			guest: guests[i],
			base:  seg.Addr(0),
			gen:   gen,
			arr: newArrivals(ArrivalConfig{
				Process: ts.Process,
				Curve:   Scale(ts.Curve, scale),
				Seed:    sliceSeed(cfg.Seed, int64(i)*2+2),
			}, ts.Boot, to, ord),
			sojourn: &stats.Histogram{},
		}
		tenants[i] = et
	}

	sched := clock.NewScheduler()
	var runErr error

	// Lifecycle events first, so a boot/death at instant t precedes any
	// arrival scheduled for the same t (scheduler ties break on insertion
	// sequence).
	for i, ts := range scen.Tenants {
		guest := guests[i]
		if ts.Boot > 0 {
			guest.SetActive(false)
			sched.Schedule(ts.Boot, i, func(time.Duration) { guest.SetActive(true) })
		}
		if ts.Death > 0 && ts.Death < scen.Horizon {
			sched.Schedule(ts.Death, i, func(time.Duration) { guest.SetActive(false) })
		}
	}

	serve := func(et *engineTenant, at time.Duration) {
		// Queue depth at arrival: ops still in the tenant's system.
		for et.head < len(et.pending) && et.pending[et.head] <= at {
			et.head++
		}
		depth := len(et.pending) - et.head
		if depth > et.queueMax {
			et.queueMax = depth
		}
		et.queueSum += uint64(depth)

		m := et.guest.Machine()
		if idle := at - m.Now(); idle > 0 {
			m.AdvanceCPU(idle) // server was idle until this arrival
		}
		page, write := et.gen.next()
		if _, err := et.guest.Touch(et.base+uint64(page)*fluidmem.PageSize, write); err != nil {
			runErr = fmt.Errorf("loadgen: tenant %s op at %v: %w", et.scen.ID, at, err)
			return
		}
		done := m.Now()
		et.sojourn.Add(done - at)
		et.offered++
		if done-at <= scen.P99Target {
			et.good++
		}
		if et.head > len(et.pending)/2 {
			et.pending = et.pending[:copy(et.pending, et.pending[et.head:])]
			et.head = 0
		}
		et.pending = append(et.pending, done)
	}
	// Arrival events chain: each fires the tenant's op, then schedules the
	// tenant's next arrival, so the heap holds at most one event — and one
	// closure, built here and re-scheduled as is — per tenant.
	for _, et := range tenants { // go 1.22: et is per-iteration
		var fire func(at time.Duration)
		fire = func(at time.Duration) {
			if runErr != nil {
				return
			}
			serve(et, at)
			if next, ok := et.arr.Next(); ok {
				sched.Schedule(next, et.idx, fire)
			}
		}
		if first, ok := et.arr.Next(); ok {
			sched.Schedule(first, et.idx, fire)
		}
	}

	sched.Run()
	if runErr != nil {
		return nil, runErr
	}
	if err := h.Drain(); err != nil {
		return nil, err
	}

	rep := buildReport(cfg, scale, h, tenants)
	if cfg.Traced {
		for _, tr := range tracers {
			rep.TraceDigests = append(rep.TraceDigests, tr.LogicalDigest())
		}
	}
	return rep, nil
}

func buildReport(cfg Config, scale float64, h *fluidmem.Host, tenants []*engineTenant) *Report {
	scen := cfg.Scenario
	rep := &Report{
		Scenario:  scen.Name,
		Planner:   cfg.Planner,
		Workers:   cfg.Workers,
		Seed:      cfg.Seed,
		RateScale: scale,
		Horizon:   scen.Horizon,
		P99Target: scen.P99Target,
	}
	if rep.Planner == "" {
		rep.Planner = PlannerStatic
	}
	hs := h.Stats()
	horizonSecs := scen.Horizon.Seconds()
	merged := &stats.Histogram{}
	for i, et := range tenants {
		ts := hs.Tenants[i]
		tr := TenantReport{
			ID:            et.scen.ID,
			Offered:       et.offered,
			Good:          et.good,
			SojournP50:    et.sojourn.Percentile(50),
			SojournP99:    et.sojourn.Percentile(99),
			SojournMax:    et.sojourn.Max(),
			SojournMean:   et.sojourn.Mean(),
			QueueMax:      et.queueMax,
			Faults:        ts.Faults,
			FaultCost:     ts.FaultCost,
			SharePages:    ts.SharePages,
			SLOWindows:    ts.SLO.Windows,
			SLOViolations: ts.SLO.Violations,
		}
		if horizonSecs > 0 {
			tr.OfferedPerSec = float64(et.offered) / horizonSecs
			tr.GoodputPerSec = float64(et.good) / horizonSecs
		}
		if et.offered > 0 {
			tr.QueueMean = float64(et.queueSum) / float64(et.offered)
		}
		merged.Merge(et.sojourn)
		rep.Tenants = append(rep.Tenants, tr)
		rep.Offered += et.offered
		rep.Good += et.good
		if et.queueMax > rep.QueueMax {
			rep.QueueMax = et.queueMax
		}
	}
	if horizonSecs > 0 {
		rep.OfferedPerSec = float64(rep.Offered) / horizonSecs
		rep.GoodputPerSec = float64(rep.Good) / horizonSecs
	}
	rep.SojournP50 = merged.Percentile(50)
	rep.SojournP99 = merged.Percentile(99)
	rep.SojournMax = merged.Max()
	if hs.Now > scen.Horizon {
		rep.Backlog = hs.Now - scen.Horizon
	}
	rep.Epochs = hs.Arbiter.Epochs
	rep.Moves = hs.Arbiter.Moves
	rep.Digest = digest(rep, tenants)
	return rep
}

// digest fingerprints the run's simulated state for the determinism oracle.
func digest(rep *Report, tenants []*engineTenant) uint64 {
	fh := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		fh.Write(buf[:])
	}
	put(rep.Offered)
	put(rep.Good)
	put(uint64(rep.Epochs))
	put(uint64(rep.Moves))
	for i, et := range tenants {
		tr := rep.Tenants[i]
		put(tr.Offered)
		put(tr.Good)
		put(tr.Faults)
		put(uint64(tr.FaultCost))
		put(uint64(tr.SharePages))
		put(uint64(tr.QueueMax))
		put(et.queueSum)
		put(et.sojourn.Count())
		put(uint64(et.sojourn.Max()))
		for _, c := range et.sojourn.Buckets() {
			put(c)
		}
	}
	return fh.Sum64()
}

// Render prints the report as a paper-style table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "open-loop %s/%s — scale %.2g, horizon %v, target p99 %v, workers %d, seed %d\n",
		r.Scenario, r.Planner, r.RateScale, r.Horizon, r.P99Target, r.Workers, r.Seed)
	fmt.Fprintf(&b, "%-10s %9s %9s %7s %10s %10s %10s %6s %7s %8s\n",
		"tenant", "offered", "good", "share", "soj-p50", "soj-p99", "soj-max", "q-max", "faults", "slo-miss")
	for _, tr := range r.Tenants {
		fmt.Fprintf(&b, "%-10s %9d %9d %7d %10s %10s %10s %6d %7d %5d/%d\n",
			tr.ID, tr.Offered, tr.Good, tr.SharePages,
			tr.SojournP50, tr.SojournP99, tr.SojournMax,
			tr.QueueMax, tr.Faults, tr.SLOViolations, tr.SLOWindows)
	}
	fmt.Fprintf(&b, "%-10s %9d %9d %7s %10s %10s %10s %6d\n",
		"total", r.Offered, r.Good, "",
		r.SojournP50, r.SojournP99, r.SojournMax, r.QueueMax)
	fmt.Fprintf(&b, "offered %.0f/s, goodput %.0f/s, backlog %v, %d epochs / %d moves, digest %016x\n",
		r.OfferedPerSec, r.GoodputPerSec, r.Backlog, r.Epochs, r.Moves, r.Digest)
	return b.String()
}
