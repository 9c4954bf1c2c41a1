package loadgen

import (
	"fmt"
	"time"

	"fluidmem"
)

// Planner picks the host's budget policy for a scenario run: the host's own
// selector, so a Report's "planner" string is the name NewHost takes.
type Planner = fluidmem.Planner

const (
	PlannerStatic  = fluidmem.PlannerStatic
	PlannerArbiter = fluidmem.PlannerArbiter
	PlannerMarket  = fluidmem.PlannerMarket
)

// Planners lists every planner, in comparison order.
func Planners() []Planner {
	return []Planner{PlannerStatic, PlannerArbiter, PlannerMarket}
}

// TenantScenario declares one tenant of an open-loop scenario: its arrival
// process, what it touches, its SLO, and its lifecycle.
type TenantScenario struct {
	// ID names the tenant (planner sort key, as everywhere).
	ID string
	// Boot is when the VM starts issuing traffic; Death (0 = never) is
	// when it dies mid-run. Outside [Boot, Death) the tenant is inactive:
	// no arrivals, excluded from the epoch-window barrier.
	Boot, Death time.Duration
	// Process and Curve shape the arrival stream; the curve's time origin
	// is the scenario start (not the tenant's boot).
	Process Process
	Curve   RateCurve
	// Keys is the touch distribution, span, write mix, and SLO.
	Keys KeySpec
}

// Scenario is a named open-loop traffic scenario: a tenant population with
// lifecycles and load curves over a fixed virtual-time horizon, on one
// shared host budget.
type Scenario struct {
	Name    string
	Horizon time.Duration
	// TotalLocalPages is the shared host DRAM budget.
	TotalLocalPages int
	// EpochOps is the per-tenant operation count closing a planner epoch.
	EpochOps int
	// P99Target is the sojourn-time target the knee-of-curve experiment
	// tests offered load against.
	P99Target time.Duration
	Tenants   []TenantScenario
}

// Scenario sizing constants: rates are sized so a DRAM-backed host (fault
// service ≈ 2.5 µs, resident hits ≈ 100 ns) sits comfortably below
// saturation at scale 1 and clearly beyond it at scale 4–8, which is what
// puts the knee inside the bench's sweep.
const (
	scenarioBudget   = 128 // shared pages
	scenarioSpanHot  = 96  // hot tenants overflow their equal split
	scenarioSpanCold = 16  // cold tenants fit in any split
	scenarioHorizon  = 200 * time.Millisecond
)

// ScenarioNames lists the built-in scenarios.
func ScenarioNames() []string { return []string{"diurnal", "flashcrowd", "churn"} }

// NamedScenario returns a built-in scenario.
//
//   - "diurnal": two anti-phase day/night zipfian populations whose working
//     sets each overflow the equal split, plus a small steady tenant with a
//     tight SLO — the planner-arbitrage shape.
//   - "flashcrowd": a steady zipfian population hit by an 8× step spike
//     mid-run while a scan tenant grinds in the background — the queueing
//     transient no closed-loop bench can exhibit.
//   - "churn": VMs boot and die mid-run (one late boot, one mid-run death)
//     over diurnal load — the tenant-lifecycle stress for planner epochs.
func NamedScenario(name string) (Scenario, error) {
	const (
		day = scenarioHorizon / 2 // diurnal period: two full days per run
	)
	base := Scenario{
		Name:            name,
		Horizon:         scenarioHorizon,
		TotalLocalPages: scenarioBudget,
		EpochOps:        400,
		// Sits a few fault-services above the uncongested p99 (~50 µs at
		// scale 1), so the knee — the largest offered-load scale whose p99
		// still meets the target — lands inside the bench's 0.5–8× sweep.
		P99Target: 150 * time.Microsecond,
	}
	switch name {
	case "diurnal":
		base.Tenants = []TenantScenario{
			{
				ID:      "day",
				Process: Poisson,
				Curve:   DiurnalRate{Base: 30_000, Swing: 0.9, Period: day},
				Keys:    KeySpec{Dist: Zipfian, SpanPages: scenarioSpanHot, WriteFrac: 0.3},
			},
			{
				ID:      "night",
				Process: Poisson,
				Curve:   DiurnalRate{Base: 30_000, Swing: 0.9, Period: day, Phase: 3.141592653589793},
				Keys:    KeySpec{Dist: Zipfian, SpanPages: scenarioSpanHot, WriteFrac: 0.3},
			},
			{
				ID:      "steady",
				Process: Poisson,
				Curve:   ConstantRate{PerSec: 10_000},
				Keys:    KeySpec{Dist: Uniform, SpanPages: scenarioSpanCold, WriteFrac: 0.1, SLO: 25 * time.Microsecond},
			},
		}
	case "flashcrowd":
		base.Tenants = []TenantScenario{
			{
				ID:      "frontpage",
				Process: Poisson,
				Curve: FlashCrowdRate{Base: 20_000, Spike: 8,
					Start: scenarioHorizon * 3 / 8, Width: scenarioHorizon / 4},
				Keys: KeySpec{Dist: Zipfian, SpanPages: scenarioSpanHot, WriteFrac: 0.2},
			},
			{
				ID:      "batch",
				Process: Deterministic,
				Curve:   ConstantRate{PerSec: 15_000},
				Keys:    KeySpec{Dist: Sequential, SpanPages: scenarioSpanHot, WriteFrac: 0.5},
			},
			{
				ID:      "steady",
				Process: Poisson,
				Curve:   ConstantRate{PerSec: 10_000},
				Keys:    KeySpec{Dist: Uniform, SpanPages: scenarioSpanCold, WriteFrac: 0.1, SLO: 25 * time.Microsecond},
			},
		}
	case "churn":
		base.Tenants = []TenantScenario{
			{
				ID:      "steady",
				Process: Poisson,
				Curve:   ConstantRate{PerSec: 20_000},
				Keys:    KeySpec{Dist: Zipfian, SpanPages: scenarioSpanHot, WriteFrac: 0.3},
			},
			{
				ID:      "dies",
				Death:   scenarioHorizon / 2,
				Process: Poisson,
				Curve:   DiurnalRate{Base: 25_000, Swing: 0.8, Period: day},
				Keys:    KeySpec{Dist: Zipfian, SpanPages: scenarioSpanHot, WriteFrac: 0.3},
			},
			{
				ID:      "lateboot",
				Boot:    scenarioHorizon / 4,
				Process: Poisson,
				Curve:   ConstantRate{PerSec: 25_000},
				Keys:    KeySpec{Dist: Zipfian, SpanPages: scenarioSpanHot, WriteFrac: 0.3},
			},
			{
				ID:      "steady-slo",
				Process: Poisson,
				Curve:   ConstantRate{PerSec: 8_000},
				Keys:    KeySpec{Dist: Uniform, SpanPages: scenarioSpanCold, WriteFrac: 0.1, SLO: 25 * time.Microsecond},
			},
		}
	default:
		return Scenario{}, fmt.Errorf("loadgen: unknown scenario %q (have %v)", name, ScenarioNames())
	}
	return base, nil
}
