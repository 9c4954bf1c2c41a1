package scenariotest

import (
	"reflect"
	"testing"

	"fluidmem/internal/loadgen"
)

// TestOpenLoopReplayOracle is the headline gate: for every scenario × planner
// cell, the run at 1 worker is re-run (bitwise repeatability) and then
// replayed at 2, 4, and 8 fault-pipeline workers. Every field of the report —
// per-tenant op counts, sojourn percentiles, queue depths, fault costs,
// planner epochs and moves, and the digest over the raw histogram buckets —
// must be identical. The core contract only guarantees the logical fields at
// any configuration (parallelism is timing-only; re-sharding can regroup
// MultiGet batches and shift virtual-time costs), so this pins the stronger
// full-report equality empirically at the exact configurations below; if a
// deliberate batching change trips it, fall back to the logical fields plus
// TestOpenLoopTracedDigests.
func TestOpenLoopReplayOracle(t *testing.T) {
	for _, name := range loadgen.ScenarioNames() {
		for _, planner := range loadgen.Planners() {
			t.Run(name+"/"+string(planner), func(t *testing.T) {
				scen, err := loadgen.NamedScenario(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := loadgen.Config{Scenario: scen, Planner: planner, Seed: 1234, Workers: 1}
				ref, err := loadgen.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if ref.Offered == 0 || ref.Digest == 0 {
					t.Fatalf("vacuous reference run: %+v", ref)
				}

				again, err := loadgen.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ref, again) {
					t.Fatalf("same-seed replay diverged:\n%s\nvs\n%s", ref.Render(), again.Render())
				}

				for _, workers := range []int{2, 4, 8} {
					wcfg := cfg
					wcfg.Workers = workers
					rep, err := loadgen.Run(wcfg)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					norm := *rep
					norm.Workers = ref.Workers
					if !reflect.DeepEqual(ref, &norm) {
						t.Fatalf("workers=%d changed the simulated outcome:\nref  %s\ngot  %s",
							workers, ref.Render(), rep.Render())
					}
				}
			})
		}
	}
}

// TestOpenLoopTracedDigests re-proves the invariance through the tracer: the
// per-tenant logical trace digests (timing-independent event streams) of a
// traced churn run must be identical across worker counts.
func TestOpenLoopTracedDigests(t *testing.T) {
	scen, err := loadgen.NamedScenario("churn")
	if err != nil {
		t.Fatal(err)
	}
	var ref *loadgen.Report
	for _, workers := range []int{1, 4} {
		rep, err := loadgen.Run(loadgen.Config{
			Scenario: scen, Planner: loadgen.PlannerMarket,
			Seed: 77, Workers: workers, Traced: true,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(rep.TraceDigests) != len(scen.Tenants) {
			t.Fatalf("workers=%d: %d trace digests for %d tenants",
				workers, len(rep.TraceDigests), len(scen.Tenants))
		}
		if ref == nil {
			ref = rep
			continue
		}
		for i, d := range rep.TraceDigests {
			if d != ref.TraceDigests[i] {
				t.Fatalf("tenant %d logical trace digest differs across worker counts: %016x vs %016x",
					i, ref.TraceDigests[i], d)
			}
		}
		if rep.Digest != ref.Digest {
			t.Fatalf("report digest differs across worker counts: %016x vs %016x", ref.Digest, rep.Digest)
		}
	}
}

// TestOpenLoopSeedsDiverge guards against a degenerate digest: different
// seeds must visibly change the run.
func TestOpenLoopSeedsDiverge(t *testing.T) {
	scen, err := loadgen.NamedScenario("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	a, err := loadgen.Run(loadgen.Config{Scenario: scen, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadgen.Run(loadgen.Config{Scenario: scen, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Fatalf("seeds 1 and 2 produced the same digest %016x", a.Digest)
	}
}
