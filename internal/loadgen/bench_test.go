package loadgen

import (
	"testing"
	"time"
)

var sinkArrival time.Duration

// BenchmarkArrivalsNext is the arrival generator's ledger row: one Next per
// op — Poisson count draws, one inverse-CDF per arrival, the in-slice sort —
// on the diurnal scenario's day tenant and on the flash crowd's spike.
func BenchmarkArrivalsNext(b *testing.B) {
	for _, bc := range []struct {
		name  string
		curve RateCurve
	}{
		{"diurnal_x1", DiurnalRate{Base: 30_000, Swing: 0.9, Period: 100 * time.Millisecond}},
		{"flashcrowd", FlashCrowdRate{Base: 20_000, Spike: 8, Start: 75 * time.Millisecond, Width: 50 * time.Millisecond}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := ArrivalConfig{Process: Poisson, Curve: bc.curve, Seed: 1}
			a := NewArrivals(cfg, 0, 1<<62)
			a.Next() // first slice sizes the buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkArrival, _ = a.Next()
			}
		})
	}
}

// BenchmarkRunDiurnal is one offered-load ladder of the diurnal scenario:
// loadgen.Run under the market planner at ×1, ×2 and ×4, each over a 2.5 s
// horizon — the rungs of the benchmark's openloop_diurnal workload, where
// arrival generation, the event scheduler, host epochs and the planner do
// the work. `make profile-openloop` profiles it.
func BenchmarkRunDiurnal(b *testing.B) {
	scen, err := NamedScenario("diurnal")
	if err != nil {
		b.Fatal(err)
	}
	scen.Horizon = 2500 * time.Millisecond
	for i := 0; i < b.N; i++ {
		for _, scale := range []float64{1, 2, 4} {
			if _, err := Run(Config{Scenario: scen, Planner: PlannerMarket, Seed: uint64(i) + 1, RateScale: scale}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
