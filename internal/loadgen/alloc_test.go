//go:build !race

package loadgen

import "testing"

// TestRunAllocsPerArrival pins the engine's own garbage: a whole diurnal
// run — host construction, planner epochs and report included — allocates
// well under one object per arrival (≈0.26; ≈4.03 when every arrival cost a
// closure, two boxed events and a slid queue). What remains belongs to the
// host's epoch machinery, not to the event loop.
// (Not under -race: the detector's instrumentation allocates.)
func TestRunAllocsPerArrival(t *testing.T) {
	scen, err := NamedScenario("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	var offered uint64
	allocs := testing.AllocsPerRun(1, func() {
		rep, err := Run(Config{Scenario: scen, Planner: PlannerMarket, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		offered = rep.Offered
	})
	if perArrival := allocs / float64(offered); perArrival >= 0.5 {
		t.Fatalf("diurnal run: %.0f allocations for %d arrivals = %.2f per arrival, want < 0.5",
			allocs, offered, perArrival)
	} else {
		t.Logf("%.0f allocations for %d arrivals = %.3f per arrival", allocs, offered, perArrival)
	}
}
