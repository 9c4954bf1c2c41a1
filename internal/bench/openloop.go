package bench

import (
	"fmt"
	"strings"
	"time"

	"fluidmem/internal/loadgen"
)

// This experiment is the open-loop scenario matrix (DESIGN.md §17): each
// built-in datacenter traffic scenario (diurnal day/night populations, a
// flash-crowd step, tenant churn) is replayed under each budget planner at a
// sweep of offered-load scales, and every cell reports offered load vs
// goodput and sojourn-latency percentiles (arrival → service completion,
// queueing included — the number a closed-loop bench structurally cannot
// measure, because closed-loop clients slow down with the system).
//
// The headline is the knee of each (scenario, planner) curve: the largest
// offered-load scale whose p99 sojourn still meets the scenario target.
// Past the knee, offered load keeps rising while goodput collapses — and the
// planners visibly move the knee (the arbiter sustains several times the
// static split's offered load on the diurnal mix). Everything is virtual
// time, so every cell is bit-deterministic per seed.

// OpenLoopBenchConfig scales the scenario matrix.
type OpenLoopBenchConfig struct {
	Scenarios []string          `json:"scenarios"`
	Planners  []loadgen.Planner `json:"planners"`
	// Scales multiplies every tenant curve per cell — the offered-load
	// sweep; must be ascending for the knee search.
	Scales []float64 `json:"scales"`
	Seed   uint64    `json:"seed"`
}

// DefaultOpenLoopBenchConfig sizes the matrix: the full run sweeps all three
// scenarios × all three planners × five scales; -quick keeps one below-knee
// and one past-knee scale on two scenarios × two planners.
func DefaultOpenLoopBenchConfig(opts Options) OpenLoopBenchConfig {
	cfg := OpenLoopBenchConfig{
		Scenarios: loadgen.ScenarioNames(),
		Planners:  loadgen.Planners(),
		Scales:    []float64{0.5, 1, 2, 4, 8},
		Seed:      opts.Seed,
	}
	if opts.Quick {
		cfg.Scenarios = []string{"diurnal", "flashcrowd"}
		cfg.Planners = []loadgen.Planner{loadgen.PlannerStatic, loadgen.PlannerArbiter}
		cfg.Scales = []float64{1, 8}
	}
	return cfg
}

// OpenLoopRow is one (scenario, planner, scale) cell.
type OpenLoopRow struct {
	Scenario string  `json:"scenario"`
	Planner  string  `json:"planner"`
	Scale    float64 `json:"scale"`
	// OfferedPerSec / GoodputPerSec are the open-loop headline pair: ops
	// offered per second of virtual time, and ops completing within the
	// scenario's sojourn target per second.
	OfferedPerSec float64 `json:"offered_per_sec"`
	GoodputPerSec float64 `json:"goodput_per_sec"`
	// Sojourn percentiles: arrival to service completion, queueing included.
	SojournP50 time.Duration `json:"sojourn_p50_ns"`
	SojournP99 time.Duration `json:"sojourn_p99_ns"`
	SojournMax time.Duration `json:"sojourn_max_ns"`
	// QueueMax is the deepest per-tenant queue observed; Backlog how far the
	// busiest tenant ran past the horizon to serve the offered load.
	QueueMax int           `json:"queue_max"`
	Backlog  time.Duration `json:"backlog_ns"`
	// Epochs / Moves count planner activity; SLO fields aggregate the
	// per-tenant fault-latency SLO windows.
	Epochs        uint64 `json:"epochs"`
	Moves         uint64 `json:"moves"`
	SLOWindows    uint64 `json:"slo_windows"`
	SLOViolations uint64 `json:"slo_violations"`
	// MetTarget marks the cell as below the knee (p99 sojourn ≤ target).
	MetTarget bool `json:"met_target"`
}

// OpenLoopKnee summarises one (scenario, planner) load-sweep curve.
type OpenLoopKnee struct {
	Scenario string `json:"scenario"`
	Planner  string `json:"planner"`
	// KneeScale is the largest swept scale whose p99 sojourn met the
	// target (0 when even the smallest scale missed); KneeOfferedPerSec and
	// KneeGoodputPerSec are that cell's loads.
	KneeScale         float64 `json:"knee_scale"`
	KneeOfferedPerSec float64 `json:"knee_offered_per_sec"`
	KneeGoodputPerSec float64 `json:"knee_goodput_per_sec"`
	// PeakGoodputPerSec is the best goodput anywhere on the sweep, and
	// Visible whether the sweep brackets the knee (some scale met the
	// target AND some scale missed it).
	PeakGoodputPerSec float64 `json:"peak_goodput_per_sec"`
	Visible           bool    `json:"knee_visible"`
}

// OpenLoopResult is the scenario-matrix artifact (BENCH_openloop.json).
type OpenLoopResult struct {
	Config OpenLoopBenchConfig `json:"config"`
	// P99TargetNs echoes the scenarios' sojourn target.
	P99Target time.Duration  `json:"p99_target_ns"`
	Rows      []OpenLoopRow  `json:"rows"`
	Knees     []OpenLoopKnee `json:"knees"`
	// AllKneesVisible is the acceptance headline: every (scenario, planner)
	// sweep brackets its knee.
	AllKneesVisible bool `json:"all_knees_visible"`
}

// RunOpenLoop runs the scenario × planner × scale matrix.
func RunOpenLoop(opts Options) (*OpenLoopResult, error) {
	cfg := DefaultOpenLoopBenchConfig(opts)
	res := &OpenLoopResult{Config: cfg, AllKneesVisible: true}
	for _, name := range cfg.Scenarios {
		for _, planner := range cfg.Planners {
			knee := OpenLoopKnee{Scenario: name, Planner: string(planner)}
			sawMiss := false
			for _, scale := range cfg.Scales {
				scen, err := loadgen.NamedScenario(name)
				if err != nil {
					return nil, err
				}
				res.P99Target = scen.P99Target
				rep, err := loadgen.Run(loadgen.Config{
					Scenario:  scen,
					Planner:   planner,
					Seed:      cfg.Seed,
					RateScale: scale,
				})
				if err != nil {
					return nil, fmt.Errorf("bench: openloop %s/%s x%g: %w", name, planner, scale, err)
				}
				row := OpenLoopRow{
					Scenario:      name,
					Planner:       string(planner),
					Scale:         scale,
					OfferedPerSec: rep.OfferedPerSec,
					GoodputPerSec: rep.GoodputPerSec,
					SojournP50:    rep.SojournP50,
					SojournP99:    rep.SojournP99,
					SojournMax:    rep.SojournMax,
					QueueMax:      rep.QueueMax,
					Backlog:       rep.Backlog,
					Epochs:        rep.Epochs,
					Moves:         rep.Moves,
					MetTarget:     rep.SojournP99 <= scen.P99Target,
				}
				for _, tr := range rep.Tenants {
					row.SLOWindows += tr.SLOWindows
					row.SLOViolations += tr.SLOViolations
				}
				res.Rows = append(res.Rows, row)
				if row.MetTarget {
					knee.KneeScale = scale
					knee.KneeOfferedPerSec = row.OfferedPerSec
					knee.KneeGoodputPerSec = row.GoodputPerSec
				} else {
					sawMiss = true
				}
				if row.GoodputPerSec > knee.PeakGoodputPerSec {
					knee.PeakGoodputPerSec = row.GoodputPerSec
				}
			}
			knee.Visible = knee.KneeScale > 0 && sawMiss
			if !knee.Visible {
				res.AllKneesVisible = false
			}
			res.Knees = append(res.Knees, knee)
		}
	}
	return res, nil
}

// Validate guards the artifact: the matrix must compare at least two
// scenarios and two planners, every sweep must bracket its knee (a sweep
// that never saturates — or starts saturated — measures nothing about the
// knee), and planner epochs must actually run on the planner rows.
func (r *OpenLoopResult) Validate() error {
	if len(r.Config.Scenarios) < 2 || len(r.Config.Planners) < 2 {
		return fmt.Errorf("bench: openloop matrix too small: %d scenarios × %d planners",
			len(r.Config.Scenarios), len(r.Config.Planners))
	}
	if len(r.Rows) == 0 {
		return fmt.Errorf("bench: openloop result has no rows")
	}
	for _, k := range r.Knees {
		if !k.Visible {
			return fmt.Errorf("bench: openloop %s/%s sweep does not bracket its knee (knee scale %g)",
				k.Scenario, k.Planner, k.KneeScale)
		}
	}
	for _, row := range r.Rows {
		if row.OfferedPerSec <= 0 {
			return fmt.Errorf("bench: openloop %s/%s x%g offered no load", row.Scenario, row.Planner, row.Scale)
		}
		if row.GoodputPerSec > row.OfferedPerSec {
			return fmt.Errorf("bench: openloop %s/%s x%g goodput exceeds offered load", row.Scenario, row.Planner, row.Scale)
		}
		if row.Planner != string(loadgen.PlannerStatic) && row.Epochs == 0 {
			return fmt.Errorf("bench: openloop %s/%s x%g ran zero planner epochs", row.Scenario, row.Planner, row.Scale)
		}
	}
	return nil
}

// Render prints the matrix and knee summary as paper-style tables.
func (r *OpenLoopResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Open-loop scenario matrix — %d scenarios × %d planners × scales %v, sojourn target %s (seed %d)\n",
		len(r.Config.Scenarios), len(r.Config.Planners), r.Config.Scales, r.P99Target, r.Config.Seed)
	fmt.Fprintf(&b, "%-11s %-8s %6s %11s %11s %10s %10s %7s %11s %6s\n",
		"scenario", "planner", "scale", "offered/s", "goodput/s", "soj-p50", "soj-p99", "q-max", "backlog", "knee")
	for _, row := range r.Rows {
		mark := "past"
		if row.MetTarget {
			mark = "ok"
		}
		fmt.Fprintf(&b, "%-11s %-8s %6.2g %11.0f %11.0f %10s %10s %7d %11s %6s\n",
			row.Scenario, row.Planner, row.Scale, row.OfferedPerSec, row.GoodputPerSec,
			row.SojournP50.Round(time.Microsecond), row.SojournP99.Round(time.Microsecond),
			row.QueueMax, row.Backlog.Round(time.Microsecond), mark)
	}
	fmt.Fprintf(&b, "\nknee of curve (largest scale with p99 sojourn ≤ %s):\n", r.P99Target)
	fmt.Fprintf(&b, "%-11s %-8s %10s %14s %14s %14s\n",
		"scenario", "planner", "knee-scale", "knee-offered/s", "knee-goodput/s", "peak-goodput/s")
	for _, k := range r.Knees {
		fmt.Fprintf(&b, "%-11s %-8s %10.2g %14.0f %14.0f %14.0f\n",
			k.Scenario, k.Planner, k.KneeScale, k.KneeOfferedPerSec, k.KneeGoodputPerSec, k.PeakGoodputPerSec)
	}
	if r.AllKneesVisible {
		fmt.Fprintf(&b, "every sweep brackets its knee\n")
	} else {
		fmt.Fprintf(&b, "WARNING: some sweep does not bracket its knee\n")
	}
	return b.String()
}
