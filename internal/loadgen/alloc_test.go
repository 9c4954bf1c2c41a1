//go:build !race

package loadgen

import "testing"

// TestRunAllocsPerArrival pins the engine's own garbage: a whole diurnal
// run — host construction, planner epochs and report included — allocates
// about one object per twenty arrivals (≈0.046). It was ≈4.03 when every
// arrival cost a closure, two boxed events and a slid queue, and ≈0.19 while
// every eviction boxed a ghost-list entry and a host epoch rebuilt its views
// and window curves. What is left is growth (frames, slabs and tables
// reaching their size), host construction, the planner's epoch work, one
// hotset snapshot per tenant and epoch, and the report.
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
	if perArrival := allocs / float64(offered); perArrival >= 0.1 {
		t.Fatalf("diurnal run: %.0f allocations for %d arrivals = %.3f per arrival, want < 0.1",
			allocs, offered, perArrival)
	} else {
		t.Logf("%.0f allocations for %d arrivals = %.3f per arrival", allocs, offered, perArrival)
	}
}
