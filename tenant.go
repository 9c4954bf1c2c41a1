package fluidmem

import (
	"time"

	"fluidmem/internal/hotset"
	"fluidmem/internal/market"
	"fluidmem/internal/stats"
)

// A Host is a list of Tenants. This file is the tenant: its contract
// (TenantPolicy), its declaration (TenantSpec), the record the host keeps per
// guest (Tenant — machine, policy, lifecycle flag and epoch-window state) and
// its row in HostStats (TenantStats). Guest operations enter a host through a
// Tenant and nowhere else.

// MarketCounters are the marketplace's cumulative counters (epochs, leases,
// claw-backs, SLO violations).
type MarketCounters = market.Stats

// MarketLease is one live grant on the marketplace's lease book.
type MarketLease = market.Lease

// TenantPolicy is one tenant's resource contract with the host.
type TenantPolicy struct {
	// FloorPages is the share the planner may never shrink this tenant
	// below; 0 uses the planner's default floor.
	FloorPages int
	// CeilPages caps this tenant's share; 0 means no per-tenant ceiling.
	CeilPages int
	// SLO is the tenant's p99 fault-latency target in virtual time; 0 means
	// no SLO. Enforcement needs epoch windows (a planner, or
	// HostConfig.EpochOps): each window's p99 is computed from the tenant's
	// monitor fault histogram, kept with or without a tracer, and compared
	// against this target. Under the market planner, a violating tenant stops
	// supplying pages, bids with priority, and has every lease it donated
	// clawed back.
	SLO time.Duration
}

// TenantSpec declares one tenant at host construction.
type TenantSpec struct {
	// ID names the tenant; must be unique and non-empty. IDs are the
	// planner's sort and tie-break key, so they are part of the
	// deterministic contract: same IDs, same curves, same plans.
	ID string
	// VM configures the tenant's machine. The host overrides LocalMemory
	// (equal split of TotalLocalPages), SharedStore, Registry, HypervisorID,
	// and — unless set — Hotset and Seed. The store is the host's: tenant 0's
	// Backend, StoreCapacity, StoreNodes, StoreReplicas, SharedStore and
	// Registry describe it, and a later tenant that sets one of them to
	// something else fails NewHost. SLO windows need no Tracer: they are
	// read from the monitor's own fault histogram.
	VM MachineConfig
	// Policy is the tenant's resource contract.
	Policy TenantPolicy
}

// Tenant is one guest on a Host: its machine, its contract, and its place in
// the current epoch window.
type Tenant struct {
	host    *Host
	id      string
	policy  TenantPolicy
	machine *Machine

	// active marks a tenant participating in epoch windows. An inactive
	// tenant (a VM that has died, or one not yet booted in an open-loop
	// scenario) issues no guest operations, so waiting for it to cross the
	// window boundary would stall every other tenant's planner epoch forever.
	// Instead the barrier skips inactive tenants and captures their snapshots
	// lazily at window close: an inactive tenant's hotset counters and fault
	// histogram are frozen (no ops mutate them), so the lazy capture is a pure
	// function of its own operation history and the interleaving-invariance
	// argument in NoteOp still holds.
	active bool

	// ops counts guest operations inside the current window; crossed marks
	// the tenant past the window boundary, and captured holds the cumulative
	// hotset snapshot taken as it crossed (capture-on-cross: the snapshot
	// depends only on the tenant's own operation sequence, never on how the
	// driver interleaved the tenants, so planner inputs — and therefore
	// decisions — are interleaving-invariant). capturedHist is the cumulative
	// fault histogram captured at the same crossing, for SLO windows.
	ops          int
	crossed      bool
	captured     HotsetCounters
	capturedHist stats.Histogram
	// base / baseHist are the snapshots at the previous epoch boundary;
	// window curves and window histograms are cumulative differences against
	// them. window is the window curve, rewritten in place every epoch (the
	// planners read a view's curve while planning and keep none).
	base     HotsetCounters
	baseHist stats.Histogram
	window   hotset.Curve
	// granted / lastHits feed the realized-savings feedback: a tenant granted
	// pages last epoch should show fewer ghost hits this window.
	granted  bool
	lastHits uint64

	// slo is the tenant's SLO accounting, updated as each window closes.
	slo SLOStatus
}

// ID returns the tenant's stable identifier.
func (t *Tenant) ID() string { return t.id }

// Policy returns the tenant's resource contract.
func (t *Tenant) Policy() TenantPolicy { return t.policy }

// Machine exposes the tenant's machine for direct drive (allocation, probes,
// teardown). Operations that should count toward epoch windows must go
// through Touch / NoteOp.
func (t *Tenant) Machine() *Machine { return t.machine }

// Touch performs one guest access and counts it toward the tenant's epoch
// window.
func (t *Tenant) Touch(addr uint64, write bool) ([]byte, error) {
	data, err := t.machine.Touch(addr, write)
	if err != nil {
		return data, err
	}
	return data, t.NoteOp()
}

// NoteOp counts one guest operation (use after driving the Machine
// directly) and plans an epoch once every active tenant has crossed the
// current window boundary. Decisions are interleaving-invariant: each
// tenant's snapshots (hotset counters and fault histogram) are captured at
// its own EpochOps-th operation of the window — a function of the tenant's
// private operation sequence only — and the planner sees exactly those N
// snapshots no matter the order in which tenants reached the boundary.
func (t *Tenant) NoteOp() error {
	h := t.host
	if !h.windows {
		return nil
	}
	t.ops++
	if t.ops == h.epochOps && !t.crossed {
		t.capture()
	}
	for _, o := range h.tenants {
		if !o.crossed && o.active {
			return nil
		}
	}
	// Every active tenant has crossed; inactive tenants are frozen, so
	// capturing them now observes exactly the state they died (or have not
	// yet booted) with, independent of when in the window this op landed.
	for _, o := range h.tenants {
		if !o.crossed {
			o.capture()
		}
	}
	return h.rebalance()
}

// capture snapshots the tenant's cumulative hotset counters and fault
// histogram as its window-boundary state.
func (t *Tenant) capture() {
	t.crossed = true
	t.captured = t.machine.monitor.HotsetSnapshot()
	t.capturedHist = t.machine.monitor.FaultHistogram()
}

// SetActive marks the tenant as participating in (true) or excluded from
// (false) the host's epoch-window barrier — the lifecycle hook open-loop
// scenarios use for VMs that boot late or die mid-run. An inactive tenant
// keeps its machine, its share, and its cumulative telemetry; it simply stops
// gating other tenants' planner epochs, and the planner sees its frozen
// window (zero new activity) until it is reactivated. Deactivating a tenant
// that already crossed the current window boundary keeps its captured
// snapshot.
func (t *Tenant) SetActive(active bool) { t.active = active }

// Active reports whether the tenant currently participates in epoch windows.
func (t *Tenant) Active() bool { return t.active }

// Stats snapshots the tenant: its row in HostStats.
func (t *Tenant) Stats() TenantStats {
	vm := t.machine.Stats()
	return TenantStats{
		ID:         t.id,
		Policy:     t.policy,
		Active:     t.active,
		SharePages: vm.FootprintLimit,
		WSSPages:   vm.WSSPages,
		SLO:        t.slo,
		Faults:     vm.Monitor.Faults,
		FaultCost:  t.machine.monitor.FaultCost(),
		VM:         vm,
	}
}

// SLOStatus is one tenant's cumulative SLO accounting.
type SLOStatus struct {
	// Target echoes the tenant's p99 target (0 = no SLO).
	Target time.Duration
	// Windows counts evaluated epoch windows; Violations the windows whose
	// p99 exceeded the target.
	Windows    uint64
	Violations uint64
	// LastP99 / LastFaults describe the most recently closed window.
	LastP99    time.Duration
	LastFaults uint64
}

// TenantStats is one tenant's row in HostStats.
type TenantStats struct {
	ID     string
	Policy TenantPolicy
	// Active reports lifecycle state: false for a tenant that has died (or
	// not yet booted) and no longer gates epoch windows.
	Active bool
	// SharePages is the tenant's current slice of the host budget, WSSPages
	// its current working-set estimate.
	SharePages int
	WSSPages   int
	SLO        SLOStatus
	// Faults counts the tenant's monitor faults and FaultCost sums their
	// end-to-end latencies in virtual time — the number the planners are
	// judged on.
	Faults    uint64
	FaultCost time.Duration
	// VM is the tenant's full machine snapshot.
	VM Stats
}
