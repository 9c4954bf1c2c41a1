package bench

import (
	"fmt"
	"strings"
	"time"

	"fluidmem"
)

// This experiment evaluates the multi-tenant host arbiter (DESIGN.md §12):
// two VMs share one DRAM page budget and one RAMCloud-class store, one VM
// cycling a working set larger than its equal split (every access re-faults
// and re-references at a fixed ghost depth — a steep miss-ratio curve), the
// other fitting comfortably (flat curve). The static equal split pays the
// hot VM's full thrash forever; the arbiter reads the ghost-LRU curves each
// epoch and moves slabs from the flat donor to the steep taker until the hot
// working set fits. The headline metric is aggregate fault cost — the sum of
// end-to-end fault latencies across both tenants in virtual time — which the
// arbiter must strictly beat.

// ArbiterBenchConfig scales the experiment.
type ArbiterBenchConfig struct {
	// TotalLocalPages is the shared host budget; the equal split gives each
	// VM half.
	TotalLocalPages int `json:"total_local_pages"`
	// HotSpan / ColdSpan are the two tenants' cyclic working-set sizes in
	// pages. HotSpan exceeds the equal split; ColdSpan fits.
	HotSpan  int `json:"hot_span_pages"`
	ColdSpan int `json:"cold_span_pages"`
	// EpochOps is the per-VM operation count per arbiter epoch; Rounds is
	// how many epochs the run drives.
	EpochOps int    `json:"epoch_ops"`
	Rounds   int    `json:"rounds"`
	Seed     uint64 `json:"seed"`
}

// DefaultArbiterBenchConfig sizes the skewed two-tenant host.
func DefaultArbiterBenchConfig(opts Options) ArbiterBenchConfig {
	cfg := ArbiterBenchConfig{
		TotalLocalPages: 256,
		HotSpan:         160,
		ColdSpan:        32,
		EpochOps:        512,
		Rounds:          10,
		Seed:            opts.Seed,
	}
	if opts.Quick {
		cfg.TotalLocalPages, cfg.HotSpan, cfg.ColdSpan = 64, 40, 8
		cfg.EpochOps, cfg.Rounds = 200, 6
	}
	return cfg
}

// ArbiterVMRow is one tenant's outcome under one variant.
type ArbiterVMRow struct {
	VM        string `json:"vm"`
	SpanPages int    `json:"span_pages"`
	// SharePages is the tenant's final local-buffer capacity; WSSPages the
	// ghost-LRU estimator's working-set estimate at run end.
	SharePages int `json:"share_pages"`
	WSSPages   int `json:"wss_pages"`
	// Faults and GhostHits are cumulative monitor / estimator counters;
	// FaultCost sums the tenant's end-to-end fault latencies.
	Faults    uint64        `json:"faults"`
	GhostHits uint64        `json:"ghost_hits"`
	FaultCost time.Duration `json:"fault_cost_ns"`
}

// ArbiterVariantRow is one budget policy's outcome.
type ArbiterVariantRow struct {
	// Variant is "static-equal-split" or "arbiter".
	Variant string         `json:"variant"`
	VMs     []ArbiterVMRow `json:"vms"`
	// TotalFaultCost aggregates fault cost across tenants — the headline
	// the arbiter must beat; TotalFaults aggregates the fault counts.
	TotalFaultCost time.Duration `json:"total_fault_cost_ns"`
	TotalFaults    uint64        `json:"total_faults"`
	// HostNow is the host virtual clock at run end.
	HostNow time.Duration `json:"host_now_ns"`
	// Arbiter activity (all zero for the static split).
	Epochs           uint64 `json:"arbiter_epochs"`
	Moves            uint64 `json:"arbiter_moves"`
	GrantedPages     uint64 `json:"arbiter_granted_pages"`
	PredictedSavings uint64 `json:"arbiter_predicted_savings"`
	RealizedSavings  uint64 `json:"arbiter_realized_savings"`
}

// ArbiterResult compares the static equal split against the arbiter on the
// same skewed workload.
type ArbiterResult struct {
	Config ArbiterBenchConfig  `json:"config"`
	Rows   []ArbiterVariantRow `json:"rows"`
	// ArbiterWins reports whether the arbiter's aggregate fault cost came
	// in under the static split's; SavingsPct is the relative reduction.
	ArbiterWins bool    `json:"arbiter_wins"`
	SavingsPct  float64 `json:"savings_pct"`
}

// runArbiterVariant builds the two-tenant host and drives the skewed cyclic
// workload round-robin for Rounds epochs. Both variants replay the identical
// logical operation sequence; only the budget policy differs.
func runArbiterVariant(cfg ArbiterBenchConfig, v benchVariant) (ArbiterVariantRow, error) {
	row := ArbiterVariantRow{Variant: v.label}
	// IDs are the planner's tie-break key: vm0 is the hot guest, vm1 the cold.
	vm := fluidmem.MachineConfig{Backend: fluidmem.BackendRAMCloud, GuestMemory: 16 << 20}
	tenants := []fluidmem.TenantSpec{{ID: "vm0", VM: vm}, {ID: "vm1", VM: vm}}
	hc := fluidmem.HostConfig{Tenants: tenants, TotalLocalPages: cfg.TotalLocalPages, Planner: v.planner, Seed: cfg.Seed}
	if v.planner != fluidmem.PlannerStatic {
		hc.EpochOps = cfg.EpochOps
	}
	h, err := fluidmem.NewHost(hc)
	if err != nil {
		return row, err
	}

	spans := []int{cfg.HotSpan, cfg.ColdSpan}
	drive, err := CyclicDrive(h.Tenants(), spans)
	if err != nil {
		return row, err
	}
	if err := drive(cfg.Rounds*cfg.EpochOps, spans); err != nil {
		return row, fmt.Errorf("%s: %w", row.Variant, err)
	}
	if err := h.Drain(); err != nil {
		return row, err
	}

	st := h.Stats()
	row.HostNow = st.Now
	row.Epochs = st.Arbiter.Epochs
	row.Moves = st.Arbiter.Moves
	row.GrantedPages = st.Arbiter.GrantedPages
	row.PredictedSavings = st.Arbiter.PredictedSavings
	row.RealizedSavings = st.Arbiter.RealizedSavings
	for i, ts := range st.Tenants {
		vr := ArbiterVMRow{
			VM:         ts.ID,
			SpanPages:  spans[i],
			SharePages: ts.SharePages,
			WSSPages:   ts.WSSPages,
			Faults:     ts.Faults,
			GhostHits:  ts.VM.Hotset.GhostHits, // a host tenant always has an estimator
			FaultCost:  ts.FaultCost,
		}
		row.VMs = append(row.VMs, vr)
		row.TotalFaultCost += vr.FaultCost
		row.TotalFaults += vr.Faults
	}
	return row, nil
}

// RunArbiter runs the static-split-vs-arbiter comparison.
func RunArbiter(opts Options) (*ArbiterResult, error) {
	cfg := DefaultArbiterBenchConfig(opts)
	res := &ArbiterResult{Config: cfg}
	for _, v := range marketVariants[:2] {
		row, err := runArbiterVariant(cfg, v)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	static, arb := res.Rows[0], res.Rows[1]
	res.ArbiterWins = arb.TotalFaultCost < static.TotalFaultCost
	if static.TotalFaultCost > 0 {
		saved := float64(static.TotalFaultCost - arb.TotalFaultCost)
		res.SavingsPct = 100 * saved / float64(static.TotalFaultCost)
	}
	return res, nil
}

// Render prints the comparison as a paper-style table.
func (r *ArbiterResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Host arbiter vs static equal split — budget %d pages, spans %d/%d, %d epochs × %d ops (seed %d)\n",
		r.Config.TotalLocalPages, r.Config.HotSpan, r.Config.ColdSpan, r.Config.Rounds, r.Config.EpochOps, r.Config.Seed)
	fmt.Fprintf(&b, "%-20s %-6s %6s %7s %5s %10s %11s %14s\n",
		"variant", "vm", "span", "share", "wss", "faults", "ghost-hits", "fault-cost")
	for _, row := range r.Rows {
		for _, vr := range row.VMs {
			fmt.Fprintf(&b, "%-20s %-6s %6d %7d %5d %10d %11d %14s\n",
				row.Variant, vr.VM, vr.SpanPages, vr.SharePages, vr.WSSPages,
				vr.Faults, vr.GhostHits, vr.FaultCost.Round(time.Microsecond))
		}
		fmt.Fprintf(&b, "%-20s %-6s %6s %7s %5s %10d %11s %14s\n",
			row.Variant, "total", "", "", "", row.TotalFaults, "", row.TotalFaultCost.Round(time.Microsecond))
		if row.Variant == "arbiter" {
			fmt.Fprintf(&b, "  arbiter: %d epochs, %d moves, %d pages granted, predicted savings %d hits, realized %d\n",
				row.Epochs, row.Moves, row.GrantedPages, row.PredictedSavings, row.RealizedSavings)
		}
	}
	if r.ArbiterWins {
		fmt.Fprintf(&b, "arbiter cuts aggregate fault cost by %.1f%%\n", r.SavingsPct)
	} else {
		fmt.Fprintf(&b, "arbiter did NOT beat the static split (%.1f%%)\n", r.SavingsPct)
	}
	return b.String()
}
