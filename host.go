package fluidmem

import (
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/arbiter"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/cluster"
	"fluidmem/internal/market"
	"fluidmem/internal/trace"
)

// Planner names the policy that resizes a host's tenant shares each epoch.
type Planner string

const (
	// PlannerStatic keeps the equal split: the baseline the planners must
	// beat. The empty Planner means the same.
	PlannerStatic Planner = "static"
	// PlannerArbiter rebalances the budget every epoch with the greedy
	// reallocator (arbiter.DefaultPolicy for the host's budget and tenant
	// count): the single-policy baseline the marketplace is benchmarked
	// against.
	PlannerArbiter Planner = "arbiter"
	// PlannerMarket runs the Memtrade-style marketplace every epoch
	// (market.DefaultConfig for the host's budget and tenant count): tenants
	// bid for slabs priced from their ghost-LRU miss-ratio curves, grants are
	// tracked as leases, and tenants violating their p99 fault-latency SLO get
	// their donated leases clawed back (internal/market).
	PlannerMarket Planner = "market"
)

// HostConfig assembles a multi-tenant host: N guests on one hypervisor
// sharing one key-value store and one local DRAM page budget.
type HostConfig struct {
	// Tenants declares the guests by name, each with its machine and its
	// policy; Host.Tenants returns their handles in this order.
	Tenants []TenantSpec
	// TotalLocalPages is the host DRAM page budget shared across all tenants.
	// Must admit at least one page per tenant.
	TotalLocalPages int
	// Planner picks the policy that resizes tenant shares each epoch:
	// PlannerStatic (or ""), PlannerArbiter or PlannerMarket. NewHost refuses
	// any other name.
	Planner Planner
	// EpochOps is the per-tenant guest-operation count that closes an epoch
	// window: each tenant's miss-ratio curve and fault histogram are
	// snapshotted as it crosses the boundary, and the planner runs once every
	// active tenant has crossed. Counting operations instead of virtual time
	// keeps epoch decisions identical across worker counts and tenant
	// interleavings — operation sequences are invariant, timings are not.
	// Default 512. Set on a planner-less host it still runs the windows
	// (curve capture + SLO evaluation, no rebalancing): the static-split
	// variant of the bench needs SLO accounting to report a miss rate.
	EpochOps int
	// Tracer optionally instruments the SHARED store and receives the
	// host's ARBITER epoch events. Per-tenant pipelines are traced via each
	// MachineConfig's own Tracer. Pure observation, as everywhere.
	Tracer *Tracer
	// Seed derives per-tenant seeds for tenants that leave Seed zero.
	Seed uint64
}

// Host runs N tenants against one shared store under one global DRAM page
// budget — the multi-tenant deployment of §IV. Tenants are named and carry
// TenantPolicy contracts; the pluggable planner (greedy arbiter or
// Memtrade-style marketplace) resizes their shares each epoch using
// FluidMem's resize primitive. Everything per-tenant lives on the Tenant.
type Host struct {
	tenants []*Tenant
	byID    map[string]*Tenant
	cfg     HostConfig

	// planner decides each epoch's share plan; nil means no rebalancing.
	// mkt aliases the planner when it is the marketplace (lease book and
	// market counters surface in HostStats).
	planner  arbiter.Planner
	mkt      *market.Market
	epochOps int
	// windows is true when epoch windows run at all (planner present, or
	// HostConfig.EpochOps set for SLO-only accounting).
	windows bool

	stats arbiter.Stats
	// views is the planner's input, rewritten in place every epoch.
	views []arbiter.VMView
}

// NewHost builds the machines and wires the shared plumbing. Every tenant
// runs ModeFluidMem (the swap baseline cannot resize, so it cannot
// participate in a shared budget).
func NewHost(cfg HostConfig) (*Host, error) {
	specs := cfg.Tenants
	n := len(specs)
	if n == 0 {
		return nil, errors.New("fluidmem: host needs at least one tenant")
	}
	if cfg.TotalLocalPages < n {
		return nil, fmt.Errorf("fluidmem: budget %d pages cannot give %d tenants a page each", cfg.TotalLocalPages, n)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	h := &Host{cfg: cfg, byID: make(map[string]*Tenant, n), epochOps: 512}
	switch cfg.Planner {
	case PlannerStatic, "":
	case PlannerArbiter:
		h.planner = arbiter.DefaultPolicy(cfg.TotalLocalPages, n)
	case PlannerMarket:
		mkt, err := market.New(market.DefaultConfig(cfg.TotalLocalPages, n))
		if err != nil {
			return nil, fmt.Errorf("fluidmem: %w", err)
		}
		h.planner = mkt
		h.mkt = mkt
	default:
		return nil, fmt.Errorf("fluidmem: unknown planner %q (want %q, %q or %q)", cfg.Planner, PlannerStatic, PlannerArbiter, PlannerMarket)
	}
	if cfg.EpochOps > 0 {
		h.epochOps = cfg.EpochOps
	}
	h.windows = h.planner != nil || cfg.EpochOps > 0

	// One shared backend + one shared partition registry, described by
	// tenant 0: the registry's collision handling guarantees each tenant a
	// distinct store partition even if two seeds produce the same guest pid.
	template := specs[0].VM
	applyMachineDefaults(&template)
	shared := template.SharedStore
	var pool *cluster.Pool
	if shared == nil {
		var err error
		shared, pool, err = newStore(MachineConfig{
			Backend:       template.Backend,
			StoreCapacity: template.StoreCapacity,
			StoreNodes:    template.StoreNodes,
			StoreReplicas: template.StoreReplicas,
			Seed:          cfg.Seed + 7,
		})
		if err != nil {
			return nil, err
		}
	}
	shared = kvstore.Instrumented(shared, cfg.Tracer)
	registry := template.Registry
	switch {
	case registry != nil:
	case pool != nil:
		registry = pool.Registry()
	default:
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
		if field := storeFieldDiffers(mc, template); field != "" {
			return nil, fmt.Errorf("fluidmem: tenant %q: %s differs from tenant %q's, and a host has one store", spec.ID, field, specs[0].ID)
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
		m, err := NewMachine(mc)
		if err != nil {
			return nil, fmt.Errorf("fluidmem: tenant %q: %w", spec.ID, err)
		}
		m.clusterPool = pool
		t := &Tenant{host: h, id: spec.ID, policy: pol, machine: m, active: true, slo: SLOStatus{Target: pol.SLO}}
		h.tenants = append(h.tenants, t)
		h.byID[spec.ID] = t
	}
	return h, nil
}

// storeFieldDiffers names the first store-describing field that mc sets to
// something other than the host's value (tenant 0's, defaults applied), or
// "" when mc describes the same store or leaves it to the host.
func storeFieldDiffers(mc, host MachineConfig) string {
	switch {
	case mc.Backend != "" && mc.Backend != host.Backend:
		return "Backend"
	case mc.StoreCapacity != 0 && mc.StoreCapacity != host.StoreCapacity:
		return "StoreCapacity"
	case mc.StoreNodes != 0 && mc.StoreNodes != host.StoreNodes:
		return "StoreNodes"
	case mc.StoreReplicas != 0 && mc.StoreReplicas != host.StoreReplicas:
		return "StoreReplicas"
	case mc.SharedStore != nil && mc.SharedStore != host.SharedStore:
		return "SharedStore"
	case mc.Registry != nil && mc.Registry != host.Registry:
		return "Registry"
	}
	return ""
}

// Tenant returns the handle for the named tenant.
func (h *Host) Tenant(id string) (*Tenant, bool) {
	t, ok := h.byID[id]
	return t, ok
}

// Tenants returns every tenant handle in configuration order.
func (h *Host) Tenants() []*Tenant {
	return append([]*Tenant(nil), h.tenants...)
}

// Now reports the host's virtual clock: the frontier (max) of the tenant
// clocks. Tenants run concurrently on one host, so the host has existed for
// as long as its longest-running tenant.
func (h *Host) Now() time.Duration {
	var now time.Duration
	for _, t := range h.tenants {
		if t.machine.Now() > now {
			now = t.machine.Now()
		}
	}
	return now
}

// rebalance runs one epoch: price each tenant's window curve, evaluate its
// SLO window, ask the planner for a plan, apply donations before grants
// (the budget is never transiently exceeded), and fold predicted/realized
// savings into the host stats.
func (h *Host) rebalance() error {
	h.views = h.views[:0]
	for _, t := range h.tenants {
		snap := &t.captured
		verdict := market.EvaluateSLO(t.policy.SLO, t.capturedHist, t.baseHist)
		if verdict.Evaluated {
			t.slo.Windows++
			if verdict.Violated {
				t.slo.Violations++
			}
		}
		t.slo.LastP99 = verdict.P99
		t.slo.LastFaults = verdict.Faults
		t.window = snap.Curve.Sub(t.base.Curve, t.window.Hits)
		h.views = append(h.views, arbiter.VMView{
			ID:           t.id,
			SharePages:   t.machine.monitor.FootprintLimit(),
			Curve:        t.window,
			WindowFaults: snap.Faults - t.base.Faults,
			FloorPages:   t.policy.FloorPages,
			CeilPages:    t.policy.CeilPages,
			SLOTarget:    t.policy.SLO,
			WindowP99:    verdict.P99,
		})

		// Realized-savings feedback: a tenant granted pages last epoch should
		// re-reference less this window. The drop in window ghost hits is the
		// observable fraction of what the grant actually bought.
		hits := snap.GhostHits - t.base.GhostHits
		if t.granted && t.lastHits > hits {
			h.stats.RealizedSavings += t.lastHits - hits
		}
		t.lastHits = hits
	}

	if h.planner != nil {
		plan, err := h.planner.Plan(h.views)
		if err != nil {
			return fmt.Errorf("fluidmem: planner: %w", err)
		}
		h.stats.Observe(plan)

		// Shrink donors first: every grant is then funded by pages already
		// returned, so the sum of shares never exceeds the budget mid-apply.
		for pass := 0; pass < 2; pass++ {
			for _, t := range h.tenants {
				target, cur := plan.Shares[t.id], t.machine.monitor.FootprintLimit()
				shrink := target < cur
				if target == cur || (pass == 0) != shrink {
					continue
				}
				if err := t.machine.ResizeFootprint(target); err != nil {
					return fmt.Errorf("fluidmem: planner resize %s: %w", t.id, err)
				}
			}
		}

		pages := 0
		for _, t := range h.tenants {
			t.granted = false
		}
		for _, mv := range plan.Moves {
			if t, ok := h.byID[mv.To]; ok {
				t.granted = true
			}
			pages += mv.Pages
		}
		if len(plan.Moves) > 0 && h.cfg.Tracer != nil {
			h.cfg.Tracer.Emit(trace.EvArbiter, 0, uint64(h.stats.Epochs), h.Now(), 0,
				fmt.Sprintf("moves=%d pages=%d", len(plan.Moves), pages))
		}
	}

	// Open the next window from the captured boundary snapshots.
	for _, t := range h.tenants {
		t.base, t.baseHist = t.captured, t.capturedHist
		t.crossed, t.ops = false, 0
	}
	return nil
}

// HostStats is the host-level telemetry snapshot.
type HostStats struct {
	// Now is the host clock (frontier of tenant clocks).
	Now time.Duration
	// TotalLocalPages is the shared budget; the tenants' SharePages always
	// sum to at most it.
	TotalLocalPages int
	// Tenants is the per-tenant view — ID, policy, share, working-set
	// estimate, SLO accounting, fault cost and the full machine snapshot —
	// in configuration order.
	Tenants []TenantStats
	// Arbiter accumulates epoch activity for whichever planner runs
	// (zero-valued without one).
	Arbiter ArbiterCounters
	// Market holds the marketplace counters and Leases its live lease book,
	// nil/empty unless the market planner is configured.
	Market *MarketCounters
	Leases []MarketLease
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
	for _, t := range h.tenants {
		st.Tenants = append(st.Tenants, t.Stats())
	}
	return st
}

// Drain quiesces every tenant's writeback engine.
func (h *Host) Drain() error {
	for _, t := range h.tenants {
		if err := t.machine.Drain(); err != nil {
			return fmt.Errorf("fluidmem: drain %s: %w", t.id, err)
		}
	}
	return nil
}
