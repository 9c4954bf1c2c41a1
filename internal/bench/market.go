package bench

import (
	"fmt"
	"strings"
	"time"

	"fluidmem"
)

// This experiment evaluates the Memtrade-style memory marketplace
// (DESIGN.md §16) against the PR-5 greedy arbiter and the static equal
// split on three two-tenant mixes:
//
//   - skewed: one steep cyclic working set that outgrows its split, one
//     flat one that fits — the arbiter's home turf. The market must match
//     its aggregate fault cost here (within 5%): SLO enforcement may not
//     tax the common case.
//   - shifting: the hot working set migrates between the tenants mid-run;
//     both carry tight p99 SLOs. Measures how each policy re-converges.
//   - adversarial: an SLO-less adversary cycling a working set larger
//     than the WHOLE host budget (its curve never flattens, so it bids
//     forever) against a small victim with a tight p99 SLO. The greedy
//     arbiter is SLO-blind and lets the adversary drain the victim; the
//     market claws leases back the moment the victim's window p99 blows
//     its target. The headline is the SLO-miss rate — violated windows
//     over evaluated windows — which the market must cut.
//
// All three variants replay the identical logical operation sequence per
// mix; only the budget policy differs. Fault cost is the sum of
// end-to-end fault latencies in virtual time, so every number here is
// bit-deterministic per seed.

// MarketBenchConfig scales the experiment; per-mix working-set spans are
// derived from the budget (hot 5/8, cold 1/8, adversary 5/4 — the
// adversary deliberately exceeds the whole budget).
type MarketBenchConfig struct {
	// TotalLocalPages is the shared host budget; the equal split gives
	// each tenant half.
	TotalLocalPages int `json:"total_local_pages"`
	// EpochOps is the per-tenant operation count per planner epoch;
	// Rounds is how many epochs the run drives.
	EpochOps int    `json:"epoch_ops"`
	Rounds   int    `json:"rounds"`
	Seed     uint64 `json:"seed"`
	// TightSLO is the victim-class p99 target. It sits below the DRAM
	// store's fault latency, so a tenant pushed into faulting violates it
	// while a resident one meets it vacuously. LooseSLO is a target no
	// DRAM-backed tenant ever misses; it keeps SLO enforcement live on
	// mixes with no intended victim.
	TightSLO time.Duration `json:"tight_slo_ns"`
	LooseSLO time.Duration `json:"loose_slo_ns"`
}

// DefaultMarketBenchConfig sizes the three mixes.
func DefaultMarketBenchConfig(opts Options) MarketBenchConfig {
	cfg := MarketBenchConfig{
		TotalLocalPages: 128,
		EpochOps:        400,
		Rounds:          12,
		Seed:            opts.Seed,
		TightSLO:        time.Microsecond,
		LooseSLO:        time.Millisecond,
	}
	if opts.Quick {
		cfg.TotalLocalPages, cfg.EpochOps, cfg.Rounds = 64, 200, 6
	}
	return cfg
}

// marketTenantDef declares one tenant of a mix: its SLO target and its
// cyclic working-set span in each half of the run (equal spans = no shift).
type marketTenantDef struct {
	id    string
	slo   time.Duration
	spans [2]int
}

// marketMix is one tenant population.
type marketMix struct {
	name    string
	tenants []marketTenantDef
}

// marketMixes derives the three populations from the budget.
func marketMixes(cfg MarketBenchConfig) []marketMix {
	hot := cfg.TotalLocalPages * 5 / 8
	cold := cfg.TotalLocalPages / 8
	adv := cfg.TotalLocalPages * 5 / 4
	return []marketMix{
		{name: "skewed", tenants: []marketTenantDef{
			{id: "hot", spans: [2]int{hot, hot}},
			{id: "cold", slo: cfg.LooseSLO, spans: [2]int{cold, cold}},
		}},
		{name: "shifting", tenants: []marketTenantDef{
			{id: "early", slo: cfg.TightSLO, spans: [2]int{hot, cold}},
			{id: "late", slo: cfg.TightSLO, spans: [2]int{cold, hot}},
		}},
		{name: "adversarial", tenants: []marketTenantDef{
			{id: "adv", spans: [2]int{adv, adv}},
			{id: "victim", slo: cfg.TightSLO, spans: [2]int{cold, cold}},
		}},
	}
}

// MarketTenantRow is one tenant's outcome under one (mix, variant) cell.
type MarketTenantRow struct {
	Tenant string `json:"tenant"`
	// SpanPages holds the tenant's working-set span in each half of the
	// run; SLOTarget its p99 contract (0 = none).
	SpanPages [2]int        `json:"span_pages"`
	SLOTarget time.Duration `json:"slo_target_ns"`
	// SharePages is the tenant's final local-buffer capacity; WSSPages
	// the ghost-LRU working-set estimate at run end.
	SharePages int `json:"share_pages"`
	WSSPages   int `json:"wss_pages"`
	// Faults / FaultCost are the tenant's cumulative fault count and
	// summed end-to-end fault latencies.
	Faults    uint64        `json:"faults"`
	FaultCost time.Duration `json:"fault_cost_ns"`
	// SLOWindows / SLOViolations count evaluated and violated epoch
	// windows; LastP99 is the final window's p99.
	SLOWindows    uint64        `json:"slo_windows"`
	SLOViolations uint64        `json:"slo_violations"`
	LastP99       time.Duration `json:"last_window_p99_ns"`
}

// MarketActivity mirrors the marketplace counters into the artifact.
type MarketActivity struct {
	Epochs            uint64 `json:"epochs"`
	SLOEnforcedEpochs uint64 `json:"slo_enforced_epochs"`
	SLOViolations     uint64 `json:"slo_violations"`
	Leases            uint64 `json:"leases"`
	LeasedPages       uint64 `json:"leased_pages"`
	Clawbacks         uint64 `json:"clawbacks"`
	ClawedPages       uint64 `json:"clawed_pages"`
}

// MarketVariantRow is one budget policy's outcome on one mix.
type MarketVariantRow struct {
	Mix string `json:"mix"`
	// Variant is "static-equal-split", "arbiter", or "market".
	Variant string            `json:"variant"`
	Tenants []MarketTenantRow `json:"tenants"`
	// TotalFaultCost / TotalFaults aggregate across tenants; FaultsPerSec
	// is the virtual-time fault throughput (ratchet row).
	TotalFaultCost time.Duration `json:"total_fault_cost_ns"`
	TotalFaults    uint64        `json:"total_faults"`
	FaultsPerSec   float64       `json:"faults_per_sec"`
	HostNow        time.Duration `json:"host_now_ns"`
	// SLOWindows / SLOViolations aggregate the per-tenant SLO accounting;
	// SLOMissPct is violations over windows.
	SLOWindows    uint64  `json:"slo_windows"`
	SLOViolations uint64  `json:"slo_violations"`
	SLOMissPct    float64 `json:"slo_miss_pct"`
	// Market carries the lease-book counters (market variant only).
	Market *MarketActivity `json:"market,omitempty"`
}

// MarketResult compares the three budget policies across the three mixes.
type MarketResult struct {
	Config MarketBenchConfig  `json:"config"`
	Rows   []MarketVariantRow `json:"rows"`
	// The two acceptance headlines. MarketBeatsArbiterSLO: on the
	// adversarial mix the market's SLO-miss rate comes in under the
	// arbiter's. SkewedCostDeltaPct: the market's aggregate fault cost on
	// the skewed mix relative to the arbiter's (positive = market more
	// expensive); WithinSkewedCostBound caps it at +5%.
	AdversarialMarketMissPct  float64 `json:"adversarial_market_miss_pct"`
	AdversarialArbiterMissPct float64 `json:"adversarial_arbiter_miss_pct"`
	MarketBeatsArbiterSLO     bool    `json:"market_beats_arbiter_slo"`
	SkewedCostDeltaPct        float64 `json:"skewed_cost_delta_pct"`
	WithinSkewedCostBound     bool    `json:"within_skewed_cost_bound"`
}

// benchVariant is one budget policy of the host comparisons: the label its
// rows carry and the planner its host runs.
type benchVariant struct {
	label   string
	planner fluidmem.Planner
}

// marketVariants are the market bench's policies; the arbiter bench runs the
// first two.
var marketVariants = []benchVariant{
	{"static-equal-split", fluidmem.PlannerStatic},
	{"arbiter", fluidmem.PlannerArbiter},
	{"market", fluidmem.PlannerMarket},
}

// runMarketVariant builds the mix's tenant population under one budget
// policy and drives the cyclic (possibly shifting) workload round-robin.
func runMarketVariant(cfg MarketBenchConfig, mix marketMix, v benchVariant) (MarketVariantRow, error) {
	row := MarketVariantRow{Mix: mix.name, Variant: v.label}
	specs := make([]fluidmem.TenantSpec, len(mix.tenants))
	for i, def := range mix.tenants {
		specs[i] = fluidmem.TenantSpec{
			ID:     def.id,
			VM:     fluidmem.MachineConfig{Backend: fluidmem.BackendDRAM, GuestMemory: 16 << 20},
			Policy: fluidmem.TenantPolicy{SLO: def.slo},
		}
	}
	// EpochOps is set for every variant: the static split still runs epoch
	// windows, so SLO-miss rates are comparable across variants.
	hc := fluidmem.HostConfig{Tenants: specs, TotalLocalPages: cfg.TotalLocalPages,
		EpochOps: cfg.EpochOps, Planner: v.planner, Seed: cfg.Seed}
	h, err := fluidmem.NewHost(hc)
	if err != nil {
		return row, err
	}

	// Each tenant's segment holds the larger of its two spans; the run
	// switches to the second-half spans at its midpoint.
	var halves [2][]int
	pages := make([]int, len(mix.tenants))
	for i, def := range mix.tenants {
		halves[0] = append(halves[0], def.spans[0])
		halves[1] = append(halves[1], def.spans[1])
		pages[i] = max(def.spans[0], def.spans[1])
	}
	drive, err := CyclicDrive(h.Tenants(), pages)
	if err != nil {
		return row, err
	}
	total := cfg.Rounds * cfg.EpochOps
	for half, ops := range []int{total / 2, total - total/2} {
		if err := drive(ops, halves[half]); err != nil {
			return row, fmt.Errorf("%s/%s: %w", mix.name, v.label, err)
		}
	}
	if err := h.Drain(); err != nil {
		return row, err
	}

	st := h.Stats()
	row.HostNow = st.Now
	for i, ts := range st.Tenants {
		tr := MarketTenantRow{
			Tenant:        ts.ID,
			SpanPages:     mix.tenants[i].spans,
			SLOTarget:     ts.Policy.SLO,
			SharePages:    ts.SharePages,
			WSSPages:      ts.WSSPages,
			Faults:        ts.Faults,
			FaultCost:     ts.FaultCost,
			SLOWindows:    ts.SLO.Windows,
			SLOViolations: ts.SLO.Violations,
			LastP99:       ts.SLO.LastP99,
		}
		row.Tenants = append(row.Tenants, tr)
		row.TotalFaultCost += tr.FaultCost
		row.TotalFaults += tr.Faults
		row.SLOWindows += tr.SLOWindows
		row.SLOViolations += tr.SLOViolations
	}
	if row.SLOWindows > 0 {
		row.SLOMissPct = 100 * float64(row.SLOViolations) / float64(row.SLOWindows)
	}
	if secs := row.HostNow.Seconds(); secs > 0 {
		row.FaultsPerSec = float64(row.TotalFaults) / secs
	}
	if st.Market != nil {
		row.Market = &MarketActivity{
			Epochs:            st.Market.Epochs,
			SLOEnforcedEpochs: st.Market.SLOEnforcedEpochs,
			SLOViolations:     st.Market.SLOViolations,
			Leases:            st.Market.Leases,
			LeasedPages:       st.Market.LeasedPages,
			Clawbacks:         st.Market.Clawbacks,
			ClawedPages:       st.Market.ClawedPages,
		}
	}
	return row, nil
}

// RunMarket runs the 3-mix × 3-variant comparison.
func RunMarket(opts Options) (*MarketResult, error) {
	cfg := DefaultMarketBenchConfig(opts)
	res := &MarketResult{Config: cfg}
	rows := map[string]MarketVariantRow{}
	for _, mix := range marketMixes(cfg) {
		for _, v := range marketVariants {
			row, err := runMarketVariant(cfg, mix, v)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
			rows[mix.name+"/"+v.label] = row
		}
	}
	advM, advA := rows["adversarial/market"], rows["adversarial/arbiter"]
	res.AdversarialMarketMissPct = advM.SLOMissPct
	res.AdversarialArbiterMissPct = advA.SLOMissPct
	res.MarketBeatsArbiterSLO = advM.SLOWindows > 0 && advA.SLOWindows > 0 &&
		advM.SLOMissPct < advA.SLOMissPct
	skM, skA := rows["skewed/market"], rows["skewed/arbiter"]
	if skA.TotalFaultCost > 0 {
		res.SkewedCostDeltaPct = 100 * (float64(skM.TotalFaultCost) - float64(skA.TotalFaultCost)) /
			float64(skA.TotalFaultCost)
	}
	res.WithinSkewedCostBound = res.SkewedCostDeltaPct <= 5
	return res, nil
}

// Validate guards the artifact against vacuous SLO enforcement: a market
// row whose marketplace never ran an SLO-enforced epoch (no tenant carried
// a target, or windows never closed) measures nothing this experiment is
// about, so bench-json must fail loudly rather than commit it.
func (r *MarketResult) Validate() error {
	marketRows := 0
	for _, row := range r.Rows {
		if row.Variant != "market" {
			continue
		}
		marketRows++
		if row.Market == nil {
			return fmt.Errorf("bench: market row %q has no marketplace counters", row.Mix)
		}
		if row.Market.Epochs == 0 {
			return fmt.Errorf("bench: market row %q ran zero epochs (EpochOps too large for the drive?)", row.Mix)
		}
		if row.Market.SLOEnforcedEpochs == 0 {
			return fmt.Errorf("bench: market row %q ran %d epochs with zero SLO-enforcement epochs — no tenant carried an SLO target",
				row.Mix, row.Market.Epochs)
		}
		if row.SLOWindows == 0 {
			return fmt.Errorf("bench: market row %q evaluated zero SLO windows", row.Mix)
		}
	}
	if marketRows == 0 {
		return fmt.Errorf("bench: market result has no market variant rows")
	}
	return nil
}

// Render prints the comparison as a paper-style table.
func (r *MarketResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Memory marketplace vs arbiter vs static split — budget %d pages, %d epochs × %d ops, tight SLO %s (seed %d)\n",
		r.Config.TotalLocalPages, r.Config.Rounds, r.Config.EpochOps, r.Config.TightSLO, r.Config.Seed)
	fmt.Fprintf(&b, "%-12s %-20s %-8s %9s %7s %5s %10s %14s %8s %9s\n",
		"mix", "variant", "tenant", "span", "share", "wss", "faults", "fault-cost", "slo-win", "slo-miss")
	for _, row := range r.Rows {
		for _, tr := range row.Tenants {
			span := fmt.Sprintf("%d", tr.SpanPages[0])
			if tr.SpanPages[1] != tr.SpanPages[0] {
				span = fmt.Sprintf("%d>%d", tr.SpanPages[0], tr.SpanPages[1])
			}
			fmt.Fprintf(&b, "%-12s %-20s %-8s %9s %7d %5d %10d %14s %8d %9d\n",
				row.Mix, row.Variant, tr.Tenant, span, tr.SharePages, tr.WSSPages,
				tr.Faults, tr.FaultCost.Round(time.Microsecond), tr.SLOWindows, tr.SLOViolations)
		}
		fmt.Fprintf(&b, "%-12s %-20s %-8s %9s %7s %5s %10d %14s %8s %8.1f%%\n",
			row.Mix, row.Variant, "total", "", "", "", row.TotalFaults,
			row.TotalFaultCost.Round(time.Microsecond), "", row.SLOMissPct)
		if row.Market != nil {
			fmt.Fprintf(&b, "  market: %d epochs (%d SLO-enforced), %d leases / %d pages, %d clawbacks / %d pages\n",
				row.Market.Epochs, row.Market.SLOEnforcedEpochs, row.Market.Leases,
				row.Market.LeasedPages, row.Market.Clawbacks, row.Market.ClawedPages)
		}
	}
	if r.MarketBeatsArbiterSLO {
		fmt.Fprintf(&b, "adversarial mix: market SLO-miss %.1f%% beats arbiter %.1f%%\n",
			r.AdversarialMarketMissPct, r.AdversarialArbiterMissPct)
	} else {
		fmt.Fprintf(&b, "adversarial mix: market SLO-miss %.1f%% did NOT beat arbiter %.1f%%\n",
			r.AdversarialMarketMissPct, r.AdversarialArbiterMissPct)
	}
	fmt.Fprintf(&b, "skewed mix: market fault cost %+.1f%% vs arbiter (bound +5%%: %v)\n",
		r.SkewedCostDeltaPct, r.WithinSkewedCostBound)
	return b.String()
}
