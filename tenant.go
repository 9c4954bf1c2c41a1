package fluidmem

import (
	"time"

	"fluidmem/internal/market"
)

// This file is the tenant-centric face of the Host API: each guest is a
// named Tenant carrying its own TenantPolicy (floor, ceiling, p99
// fault-latency SLO), and host operations route by tenant ID. The
// index-based Host methods (Touch, NoteOp, Machine) are thin wrappers over
// the tenant handles — the index is the tenant's position in
// HostConfig.Tenants.

// MarketPolicy re-exports the memory-marketplace knobs (default floor and
// ceiling, slab size, leases per epoch, bid-ask hysteresis).
type MarketPolicy = market.Config

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
	// no SLO. Enforcement needs epoch windows (a Market, an Arbiter, or
	// HostConfig.EpochOps): each window's p99 is computed from the tenant's
	// merged per-worker FAULT histograms and compared against this target.
	// Under the market planner, a violating tenant stops supplying pages,
	// bids with priority, and has every lease it donated clawed back.
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
	// and — unless set — Hotset and Seed. A tenant with an SLO and no Tracer
	// gets a histogram-only tracer attached automatically (pure observation;
	// simulated results are unchanged).
	VM MachineConfig
	// Policy is the tenant's resource contract.
	Policy TenantPolicy
}

// Tenant is the runtime handle for one named tenant: the ID-routed surface
// for guest operations and telemetry.
type Tenant struct {
	host *Host
	idx  int
	id   string
}

// ID returns the tenant's stable identifier.
func (t *Tenant) ID() string { return t.id }

// Policy returns the tenant's resource contract.
func (t *Tenant) Policy() TenantPolicy { return t.host.policies[t.idx] }

// Machine exposes the tenant's machine for direct drive (allocation, probes,
// teardown). Operations that should count toward epoch windows must go
// through Touch / NoteOp.
func (t *Tenant) Machine() *Machine { return t.host.machines[t.idx] }

// Touch performs one guest access and counts it toward the tenant's epoch
// window.
func (t *Tenant) Touch(addr uint64, write bool) ([]byte, error) {
	return t.host.touch(t.idx, addr, write)
}

// NoteOp counts one guest operation (use after driving the Machine
// directly); the host plans an epoch once every tenant has crossed the
// window boundary.
func (t *Tenant) NoteOp() error { return t.host.noteOp(t.idx) }

// Stats snapshots the tenant's machine telemetry.
func (t *Tenant) Stats() Stats { return t.host.machines[t.idx].Stats() }

// SetActive marks the tenant as participating in (true) or excluded from
// (false) the host's epoch-window barrier — the lifecycle hook for VMs that
// boot late or die mid-run (see Host.SetTenantActive).
func (t *Tenant) SetActive(active bool) { t.host.active[t.idx] = active }

// Active reports whether the tenant currently participates in epoch windows.
func (t *Tenant) Active() bool { return t.host.active[t.idx] }

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
	Active     bool
	SharePages int
	WSSPages   int
	SLO        SLOStatus
}
