package fluidmem

import (
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/arbiter"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/market"
	"fluidmem/internal/stats"
	"fluidmem/internal/trace"
)

// ArbiterPolicy re-exports the greedy reallocation policy knobs
// (floor/ceiling, slab size, moves per epoch, hysteresis).
type ArbiterPolicy = arbiter.Policy

// ArbiterConfig enables adaptive local-memory balancing on a Host with the
// PR-5 greedy reallocator — the single-policy baseline the marketplace is
// benchmarked against.
type ArbiterConfig struct {
	// Policy tunes the greedy reallocator; the zero value selects
	// arbiter.DefaultPolicy for the host's budget and VM count.
	Policy ArbiterPolicy
	// EpochOps is the per-VM guest-operation count that closes an epoch
	// window: each VM's miss-ratio curve is snapshotted as it crosses the
	// boundary, and the arbiter runs once every VM has crossed. Counting
	// operations instead of virtual time keeps epoch decisions identical
	// across worker counts and VM interleavings — operation sequences are
	// invariant, timings are not. Default 512.
	EpochOps int
}

// MarketConfig enables the Memtrade-style memory marketplace on a Host:
// tenants bid for slabs priced from their ghost-LRU miss-ratio curves,
// grants are tracked as leases, and tenants violating their p99
// fault-latency SLO get their donated leases clawed back (internal/market).
type MarketConfig struct {
	// Policy tunes the marketplace; the zero value selects
	// market.DefaultConfig for the host's budget and tenant count.
	Policy MarketPolicy
	// EpochOps is the per-tenant operation count closing an epoch window,
	// exactly as in ArbiterConfig. Default 512.
	EpochOps int
}

// HostConfig assembles a multi-tenant host: N guests on one hypervisor
// sharing one key-value store and one local DRAM page budget.
type HostConfig struct {
	// Tenants declares the guests by name, each with its machine and its
	// policy; a tenant's index in this slice is its index in Host.Touch,
	// NoteOp and Machine.
	Tenants []TenantSpec
	// TotalLocalPages is the host DRAM page budget shared across all VMs.
	// Must admit at least one page per VM.
	TotalLocalPages int
	// Arbiter, when non-nil, rebalances the budget every epoch with the
	// greedy reallocator. Mutually exclusive with Market; nil keeps the
	// static equal split (the baseline the planners must beat).
	Arbiter *ArbiterConfig
	// Market, when non-nil, runs the marketplace planner every epoch.
	Market *MarketConfig
	// EpochOps makes a planner-less host still run epoch windows (curve
	// capture + SLO evaluation, no rebalancing) — the static-split variant
	// of the bench needs SLO accounting to report a miss rate. Ignored when
	// Arbiter or Market is set (their EpochOps governs).
	EpochOps int
	// Tracer optionally instruments the SHARED store and receives the
	// host's ARBITER epoch events. Per-VM pipelines are traced via each
	// MachineConfig's own Tracer. Pure observation, as everywhere.
	Tracer *Tracer
	// Seed derives per-VM seeds for VMs that leave Seed zero.
	Seed uint64
}

// Host runs N Machines against one shared store under one global DRAM page
// budget — the multi-tenant deployment of §IV. Tenants are named and carry
// TenantPolicy contracts; the pluggable planner (greedy arbiter or
// Memtrade-style marketplace) resizes their shares each epoch using
// FluidMem's resize primitive.
type Host struct {
	machines []*Machine
	ids      []string
	tenants  []*Tenant
	policies []TenantPolicy
	byID     map[string]int
	cfg      HostConfig

	// active marks tenants currently participating in epoch windows. An
	// inactive tenant (a VM that has died, or one not yet booted in an
	// open-loop scenario) issues no guest operations, so waiting for it to
	// cross the window boundary would stall every other tenant's planner
	// epoch forever. Instead the barrier skips inactive tenants and captures
	// their snapshots lazily at window close: an inactive tenant's hotset
	// counters and FAULT histogram are frozen (no ops mutate them), so the
	// lazy capture is a pure function of its own operation history and the
	// interleaving-invariance argument in noteOp still holds.
	active []bool

	// planner decides each epoch's share plan; nil means no rebalancing.
	// mkt aliases the planner when it is the marketplace (lease book and
	// market counters surface in HostStats).
	planner  arbiter.Planner
	mkt      *market.Market
	epochOps int
	// windows is true when epoch windows run at all (planner present, or
	// HostConfig.EpochOps set for SLO-only accounting).
	windows bool

	// opCount counts guest operations per VM inside the current window;
	// captured[i] holds the VM's cumulative hotset snapshot taken as it
	// crossed the window boundary (capture-on-cross: the snapshot depends
	// only on the VM's own operation sequence, never on how the driver
	// interleaved the VMs, so planner inputs — and therefore decisions —
	// are interleaving-invariant). capturedHist[i] is the cumulative merged
	// FAULT histogram captured at the same crossing, for SLO windows.
	opCount      []int
	captured     []*HotsetCounters
	capturedHist []stats.Histogram
	// windowBase / windowBaseHist are each VM's snapshots at the previous
	// epoch boundary; window curves and window histograms are cumulative
	// differences against them.
	windowBase     []HotsetCounters
	windowBaseHist []stats.Histogram
	// lastGranted/lastWindowHits feed the realized-savings feedback: a VM
	// granted pages last epoch should show fewer ghost hits this window.
	lastGranted    map[int]bool
	lastWindowHits []uint64

	// Per-tenant SLO accounting, updated as each window closes.
	slo []SLOStatus

	stats arbiter.Stats
}

// NewHost builds the machines and wires the shared plumbing. Every VM runs
// ModeFluidMem (the swap baseline cannot resize, so it cannot participate in
// a shared budget).
func NewHost(cfg HostConfig) (*Host, error) {
	specs := cfg.Tenants
	n := len(specs)
	if n == 0 {
		return nil, errors.New("fluidmem: host needs at least one tenant")
	}
	if cfg.TotalLocalPages < n {
		return nil, fmt.Errorf("fluidmem: budget %d pages cannot give %d tenants a page each", cfg.TotalLocalPages, n)
	}
	if cfg.Arbiter != nil && cfg.Market != nil {
		return nil, errors.New("fluidmem: Arbiter and Market are mutually exclusive planners")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	h := &Host{
		cfg:            cfg,
		byID:           make(map[string]int, n),
		epochOps:       512,
		opCount:        make([]int, n),
		captured:       make([]*HotsetCounters, n),
		capturedHist:   make([]stats.Histogram, n),
		windowBase:     make([]HotsetCounters, n),
		windowBaseHist: make([]stats.Histogram, n),
		lastGranted:    make(map[int]bool),
		lastWindowHits: make([]uint64, n),
		slo:            make([]SLOStatus, n),
		active:         make([]bool, n),
	}
	for i := range h.active {
		h.active[i] = true
	}
	switch {
	case cfg.Arbiter != nil:
		policy := cfg.Arbiter.Policy
		if policy == (arbiter.Policy{}) {
			policy = arbiter.DefaultPolicy(cfg.TotalLocalPages, n)
		}
		if err := policy.Validate(); err != nil {
			return nil, fmt.Errorf("fluidmem: %w", err)
		}
		h.planner = policy
		if cfg.Arbiter.EpochOps > 0 {
			h.epochOps = cfg.Arbiter.EpochOps
		}
	case cfg.Market != nil:
		mc := cfg.Market.Policy
		if mc == (market.Config{}) {
			mc = market.DefaultConfig(cfg.TotalLocalPages, n)
		}
		mkt, err := market.New(mc)
		if err != nil {
			return nil, fmt.Errorf("fluidmem: %w", err)
		}
		h.planner = mkt
		h.mkt = mkt
		if cfg.Market.EpochOps > 0 {
			h.epochOps = cfg.Market.EpochOps
		}
	case cfg.EpochOps > 0:
		h.epochOps = cfg.EpochOps
	}
	h.windows = h.planner != nil || cfg.EpochOps > 0

	// One shared backend + one shared partition registry: the registry's
	// collision handling guarantees each VM a distinct store partition even
	// if two seeds produce the same guest pid.
	template := specs[0].VM
	applyMachineDefaults(&template)
	shared := template.SharedStore
	if shared == nil {
		backend, _, err := newStore(MachineConfig{Backend: template.Backend, StoreCapacity: template.StoreCapacity, Seed: cfg.Seed + 7})
		if err != nil {
			return nil, err
		}
		shared = backend
	}
	shared = kvstore.Instrumented(shared, cfg.Tracer)
	registry := template.Registry
	if registry == nil {
		registry = kvstore.NewLocalRegistry()
	}

	share := cfg.TotalLocalPages / n
	for i, spec := range specs {
		if spec.ID == "" {
			return nil, fmt.Errorf("fluidmem: tenant %d has an empty ID", i)
		}
		if _, dup := h.byID[spec.ID]; dup {
			return nil, fmt.Errorf("fluidmem: duplicate tenant ID %q", spec.ID)
		}
		pol := spec.Policy
		if pol.FloorPages < 0 || pol.CeilPages < 0 || pol.SLO < 0 {
			return nil, fmt.Errorf("fluidmem: tenant %q: negative policy field", spec.ID)
		}
		if pol.CeilPages != 0 && pol.FloorPages > pol.CeilPages {
			return nil, fmt.Errorf("fluidmem: tenant %q: floor %d above ceiling %d", spec.ID, pol.FloorPages, pol.CeilPages)
		}
		mc := spec.VM
		if mc.Mode != 0 && mc.Mode != ModeFluidMem {
			return nil, fmt.Errorf("fluidmem: tenant %q: only ModeFluidMem machines can share a resizable budget", spec.ID)
		}
		mc.Mode = ModeFluidMem
		mc.SharedStore = shared
		mc.Registry = registry
		mc.HypervisorID = fmt.Sprintf("host-vm-%d", i)
		mc.LocalMemory = uint64(share) * PageSize
		if mc.Seed == 0 {
			mc.Seed = cfg.Seed + uint64(i)*0x9e37_79b9 + 1
		}
		if mc.Hotset == nil {
			// The ghost list must see past the equal split for the planners
			// to price grants: shadow up to the FULL host budget.
			p := DefaultHotsetParams(share)
			p.GhostCapacity = cfg.TotalLocalPages
			mc.Hotset = &p
		}
		if pol.SLO > 0 && mc.Tracer == nil && h.windows {
			// SLO windows need the FAULT histogram. A histogram-only tracer
			// is pure observation: simulated results are bit-identical with
			// or without it.
			mc.Tracer = NewTracer(false)
		}
		m, err := NewMachine(mc)
		if err != nil {
			return nil, fmt.Errorf("fluidmem: tenant %q: %w", spec.ID, err)
		}
		h.machines = append(h.machines, m)
		h.ids = append(h.ids, spec.ID)
		h.policies = append(h.policies, pol)
		h.byID[spec.ID] = i
		h.tenants = append(h.tenants, &Tenant{host: h, idx: i, id: spec.ID})
		h.slo[i].Target = pol.SLO
	}
	return h, nil
}

// VMs reports the tenant count.
func (h *Host) VMs() int { return len(h.machines) }

// Tenant returns the handle for the named tenant.
func (h *Host) Tenant(id string) (*Tenant, bool) {
	i, ok := h.byID[id]
	if !ok {
		return nil, false
	}
	return h.tenants[i], true
}

// Tenants returns every tenant handle in configuration order.
func (h *Host) Tenants() []*Tenant {
	return append([]*Tenant(nil), h.tenants...)
}

// Machine exposes tenant i for direct drive (allocation, stats, teardown).
// Thin index wrapper over Tenant.Machine: i is the tenant's position in the
// HostConfig. Guest operations that should count toward epoch windows must
// go through Host.Touch / Host.NoteOp.
func (h *Host) Machine(i int) *Machine { return h.machines[i] }

// Now reports the host's virtual clock: the frontier (max) of the tenant
// clocks. Tenants run concurrently on one host, so the host has existed for
// as long as its longest-running tenant.
func (h *Host) Now() time.Duration {
	var now time.Duration
	for _, m := range h.machines {
		if m.Now() > now {
			now = m.Now()
		}
	}
	return now
}

// Touch performs one guest access on tenant i and counts it toward the
// epoch window. Thin index wrapper over Tenant.Touch.
func (h *Host) Touch(i int, addr uint64, write bool) ([]byte, error) {
	return h.touch(i, addr, write)
}

// NoteOp counts one guest operation for tenant i. Thin index wrapper over
// Tenant.NoteOp.
func (h *Host) NoteOp(i int) error { return h.noteOp(i) }

func (h *Host) touch(i int, addr uint64, write bool) ([]byte, error) {
	data, err := h.machines[i].Touch(addr, write)
	if err != nil {
		return data, err
	}
	return data, h.noteOp(i)
}

// noteOp counts one guest operation for tenant i and plans an epoch when
// every tenant has crossed the current window boundary. Decisions are
// interleaving-invariant: each VM's snapshots (hotset counters and FAULT
// histogram) are captured at its own EpochOps-th operation of the window —
// a function of the VM's private operation sequence only — and the planner
// sees exactly those N snapshots no matter the order in which tenants
// reached the boundary.
func (h *Host) noteOp(i int) error {
	if !h.windows {
		return nil
	}
	h.opCount[i]++
	if h.opCount[i] == h.epochOps && h.captured[i] == nil {
		h.capture(i)
	}
	for j, c := range h.captured {
		if c == nil && h.active[j] {
			return nil
		}
	}
	// Every active tenant has crossed; inactive tenants are frozen, so
	// capturing them now observes exactly the state they died (or have not
	// yet booted) with, independent of when in the window this op landed.
	for j, c := range h.captured {
		if c == nil {
			h.capture(j)
		}
	}
	return h.rebalance()
}

// capture snapshots tenant i's cumulative hotset counters and FAULT
// histogram as its window-boundary state.
func (h *Host) capture(i int) {
	snap := h.machines[i].monitor.HotsetSnapshot()
	h.captured[i] = &snap
	h.capturedHist[i] = h.machines[i].monitor.Tracer().PhaseHistogram(trace.EvFault)
}

// SetTenantActive marks the named tenant as participating in (active) or
// excluded from (inactive) the epoch-window barrier — the host-level
// lifecycle hook open-loop scenarios use for VMs that boot late or die
// mid-run. An inactive tenant keeps its machine, its share, and its
// cumulative telemetry; it simply stops gating other tenants' planner
// epochs, and the planner sees its frozen window (zero new activity) until
// it is reactivated. Deactivating a tenant that already crossed the current
// window boundary keeps its captured snapshot.
func (h *Host) SetTenantActive(id string, active bool) error {
	i, ok := h.byID[id]
	if !ok {
		return fmt.Errorf("fluidmem: no tenant %q", id)
	}
	h.active[i] = active
	return nil
}

// TenantActive reports whether the named tenant currently participates in
// epoch windows.
func (h *Host) TenantActive(id string) bool {
	i, ok := h.byID[id]
	return ok && h.active[i]
}

// rebalance runs one epoch: price each tenant's window curve, evaluate its
// SLO window, ask the planner for a plan, apply donations before grants
// (the budget is never transiently exceeded), and fold predicted/realized
// savings into the host stats.
func (h *Host) rebalance() error {
	n := len(h.machines)
	views := make([]arbiter.VMView, n)
	windowHits := make([]uint64, n)
	for i, m := range h.machines {
		snap := *h.captured[i]
		windowCurve := snap.Curve.Sub(h.windowBase[i].Curve)
		windowHits[i] = snap.GhostHits - h.windowBase[i].GhostHits
		pol := h.policies[i]
		verdict := market.EvaluateSLO(pol.SLO, h.capturedHist[i], h.windowBaseHist[i])
		if verdict.Evaluated {
			h.slo[i].Windows++
			if verdict.Violated {
				h.slo[i].Violations++
			}
		}
		h.slo[i].LastP99 = verdict.P99
		h.slo[i].LastFaults = verdict.Faults
		views[i] = arbiter.VMView{
			ID:           h.ids[i],
			SharePages:   m.monitor.FootprintLimit(),
			Curve:        windowCurve,
			WindowFaults: snap.Faults - h.windowBase[i].Faults,
			FloorPages:   pol.FloorPages,
			CeilPages:    pol.CeilPages,
			SLOTarget:    pol.SLO,
			WindowP99:    verdict.P99,
		}
	}

	// Realized-savings feedback: tenants granted pages last epoch should
	// re-reference less this window. The drop in window ghost hits is the
	// observable fraction of what the grant actually bought.
	for i := range h.machines {
		if h.lastGranted[i] && h.lastWindowHits[i] > windowHits[i] {
			h.stats.RealizedSavings += h.lastWindowHits[i] - windowHits[i]
		}
	}
	copy(h.lastWindowHits, windowHits)

	if h.planner != nil {
		plan, err := h.planner.Plan(views)
		if err != nil {
			return fmt.Errorf("fluidmem: planner: %w", err)
		}
		h.stats.Observe(plan)

		// Shrink donors first: every grant is then funded by pages already
		// returned, so the sum of shares never exceeds the budget mid-apply.
		for pass := 0; pass < 2; pass++ {
			for i, m := range h.machines {
				target, cur := plan.Shares[h.ids[i]], m.monitor.FootprintLimit()
				shrink := target < cur
				if target == cur || (pass == 0) != shrink {
					continue
				}
				if err := m.ResizeFootprint(target); err != nil {
					return fmt.Errorf("fluidmem: planner resize %s: %w", h.ids[i], err)
				}
			}
		}

		h.lastGranted = make(map[int]bool)
		for _, mv := range plan.Moves {
			for i, id := range h.ids {
				if id == mv.To {
					h.lastGranted[i] = true
				}
			}
		}

		if len(plan.Moves) > 0 {
			pages := 0
			for _, mv := range plan.Moves {
				pages += mv.Pages
			}
			h.cfg.Tracer.Emit(trace.EvArbiter, 0, uint64(h.stats.Epochs), h.Now(), 0,
				fmt.Sprintf("moves=%d pages=%d", len(plan.Moves), pages))
		}
	}

	// Open the next window from the captured boundary snapshots.
	for i := range h.machines {
		h.windowBase[i] = *h.captured[i]
		h.windowBaseHist[i] = h.capturedHist[i]
		h.captured[i] = nil
		h.capturedHist[i] = stats.Histogram{}
		h.opCount[i] = 0
	}
	return nil
}

// HostStats is the host-level telemetry snapshot.
type HostStats struct {
	// Now is the host clock (frontier of tenant clocks).
	Now time.Duration
	// TotalLocalPages is the shared budget; Shares the current per-VM
	// split (always summing to at most the budget).
	TotalLocalPages int
	Shares          []int
	// WSSPages is each tenant's current working-set estimate.
	WSSPages []int
	// Tenants is the per-tenant view: ID, policy, share, and SLO
	// accounting, in configuration order.
	Tenants []TenantStats
	// Arbiter accumulates epoch activity for whichever planner runs
	// (zero-valued without one).
	Arbiter ArbiterCounters
	// Market holds the marketplace counters and Leases its live lease book,
	// nil/empty unless the market planner is configured.
	Market *MarketCounters
	Leases []MarketLease
	// VMs holds each tenant's full machine snapshot.
	VMs []Stats
}

// Stats snapshots the host and every tenant.
func (h *Host) Stats() HostStats {
	st := HostStats{
		Now:             h.Now(),
		TotalLocalPages: h.cfg.TotalLocalPages,
		Arbiter:         h.stats,
	}
	if h.mkt != nil {
		ms := h.mkt.Stats()
		st.Market = &ms
		st.Leases = h.mkt.Leases()
	}
	for i, m := range h.machines {
		ms := m.Stats()
		st.VMs = append(st.VMs, ms)
		st.Shares = append(st.Shares, ms.FootprintLimit)
		st.WSSPages = append(st.WSSPages, ms.WSSPages)
		st.Tenants = append(st.Tenants, TenantStats{
			ID:         h.ids[i],
			Policy:     h.policies[i],
			Active:     h.active[i],
			SharePages: ms.FootprintLimit,
			WSSPages:   ms.WSSPages,
			SLO:        h.slo[i],
		})
	}
	return st
}

// Drain quiesces every tenant's writeback engine.
func (h *Host) Drain() error {
	for i, m := range h.machines {
		if err := m.Drain(); err != nil {
			return fmt.Errorf("fluidmem: drain %s: %w", h.ids[i], err)
		}
	}
	return nil
}
