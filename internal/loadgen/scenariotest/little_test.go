package scenariotest

import (
	"math"
	"testing"
	"time"

	"fluidmem/internal/loadgen"
)

// TestLittlesLawWithPASTA holds the engine's queueing to theory. One tenant
// takes constant-rate Poisson arrivals on uniform keys over a 32-page
// budget for 400 ms. Poisson arrivals see time averages (PASTA), so the mean
// queue depth an arrival finds, QueueMean, is the time-average number in
// system L, and Little's law makes that λ·W, W being SojournMean and λ the
// arrivals per second the run offered. Pooled over at least 8 seeds per
// point, Σ QueueMean / Σ λ·W must lie within ±3 % of 1.
//
// The law needs a queue that drains: a run whose backlog past the horizon
// is one mean service or more (FaultCost per op: the summed fault latencies,
// which is the service less a hit's nanoseconds) is still serving what it
// was offered, and is left out of the pool. The points lie below
// saturation, at ρ ≈ 0.35–0.75; past it, the backlog outlives the horizon and
// the ratio reads 0.66 at span 96 and 80 k/s. It fails if arrivals come two
// at one instant, if the depth counts the arriving op, or if the sojourn
// starts at service rather than at arrival.
func TestLittlesLawWithPASTA(t *testing.T) {
	const horizon = 400 * time.Millisecond
	for _, pt := range []struct {
		span int
		rate float64
	}{{96, 20_000}, {96, 40_000}, {1024, 20_000}, {1024, 30_000}} {
		var depth, littles float64
		pooled, seed := 0, uint64(0)
		for pooled < 8 && seed < 64 {
			seed++
			scen := loadgen.Scenario{
				Name:            "little",
				Horizon:         horizon,
				TotalLocalPages: 32,
				P99Target:       time.Millisecond,
				Tenants: []loadgen.TenantScenario{{
					ID:      "mg1",
					Process: loadgen.Poisson,
					Curve:   loadgen.ConstantRate{PerSec: pt.rate},
					Keys:    loadgen.KeySpec{Dist: loadgen.Uniform, SpanPages: pt.span},
				}},
			}
			rep, err := loadgen.Run(loadgen.Config{Scenario: scen, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			tr := rep.Tenants[0]
			if tr.Offered == 0 {
				t.Fatalf("span %d at %.0f/s seed %d: no arrivals", pt.span, pt.rate, seed)
			}
			if service := tr.FaultCost / time.Duration(tr.Offered); rep.Backlog >= service {
				continue
			}
			lambda := float64(tr.Offered) / horizon.Seconds()
			depth += tr.QueueMean
			littles += lambda * tr.SojournMean.Seconds()
			pooled++
		}
		if pooled < 8 {
			t.Fatalf("span %d at %.0f/s: %d of %d seeds drained within one mean service, want 8", pt.span, pt.rate, pooled, seed)
		}
		ratio := depth / littles
		t.Logf("span %d at %.0f/s: Σ QueueMean / Σ λW = %.4f over %d of %d seeds", pt.span, pt.rate, ratio, pooled, seed)
		if math.Abs(ratio-1) > 0.03 {
			t.Errorf("span %d at %.0f/s: Σ QueueMean / Σ λW = %.4f over %d seeds, want 1 ± 3 %%", pt.span, pt.rate, ratio, pooled)
		}
	}
}
