package loadgen

import (
	"math"
	"testing"
	"time"

	"fluidmem/internal/clock"
)

// invCum and guessCum are one-shot inversions over a fresh interpolant of
// the bracket (lo, hi]: the shape the differential tests probe.
func invCum(c RateCurve, target float64, lo, hi time.Duration, cumLo, cumHi float64) time.Duration {
	inv := newCumInverse(c, lo, hi, cumLo, cumHi)
	return inv.invert(target)
}

func guessCum(c RateCurve, target float64, lo, hi time.Duration, cumLo, cumHi float64) (time.Duration, bool) {
	inv := newCumInverse(c, lo, hi, cumLo, cumHi)
	return inv.guess(target)
}

// countingCurve counts the evaluations an arrival stream makes of its curve.
type countingCurve struct {
	c            RateCurve
	cumOps, rate int
}

func (c *countingCurve) Rate(t time.Duration) float64 {
	c.rate++
	return c.c.Rate(t)
}

func (c *countingCurve) CumOps(t time.Duration) float64 {
	c.cumOps++
	return c.c.CumOps(t)
}

// inversions is how slice k's targets fared, drawn as sliceArrivals draws
// them: how many the guess verified on the interpolant's candidate itself,
// after a walk, or not at all (bisection answered), and how many sat exactly
// on the slice's end.
type inversions struct{ exact, walked, fallbacks, onEnd int }

func (s *inversions) add(cfg ArrivalConfig, k int64) {
	start := time.Duration(k) * ArrivalSlice
	end := start + ArrivalSlice
	cumStart, cumEnd := cfg.Curve.CumOps(start), cfg.Curve.CumOps(end)
	var targets []float64
	if cfg.Process == Deterministic {
		for n := math.Floor(cumStart) + 1; n <= cumEnd; n++ {
			targets = append(targets, n)
		}
	} else {
		r := clock.NewRand(sliceSeed(cfg.Seed, k))
		lambda := cumEnd - cumStart
		for i := poissonCount(r, lambda); i > 0; i-- {
			targets = append(targets, cumStart+r.Float64()*lambda)
		}
	}
	inv := newCumInverse(cfg.Curve, start, end, cumStart, cumEnd)
	for _, target := range targets {
		if target == cumEnd {
			s.onEnd++
		}
		cand, _ := inv.candidate(target - cumStart)
		switch t, ok := inv.guess(target); {
		case !ok:
			s.fallbacks++
		case t == cand:
			s.exact++
		default:
			s.walked++
		}
	}
}

// TestArrivalCurveCallsPinned is the inversion's cost counter: on the
// diurnal scenario's day and night tenants, over 2 500 slices at ×1 and ×4,
// each arrival costs at most 2.3 CumOps and 0.1 Rate evaluations, slice
// ends included, and no target falls back to bisection. The counts are
// exact, so the bounds hold on any machine.
func TestArrivalCurveCallsPinned(t *testing.T) {
	const slices = 2500
	scen, err := NamedScenario("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	for ti, ts := range scen.Tenants {
		if ts.ID != "day" && ts.ID != "night" {
			continue
		}
		for _, scale := range []float64{1, 4} {
			curve := resolve(Scale(ts.Curve, scale))
			counted := &countingCurve{c: curve}
			cfg := ArrivalConfig{Process: ts.Process, Curve: counted, Seed: sliceSeed(1, int64(ti))}
			plain := cfg
			plain.Curve = curve
			var got inversions
			arrivals := 0
			var buf []time.Duration
			var ord sliceOrder
			for k := int64(0); k < slices; k++ {
				buf = cfg.sliceArrivals(k, buf[:0], &ord)
				arrivals += len(buf)
				got.add(plain, k)
			}
			cum := float64(counted.cumOps) / float64(arrivals)
			rate := float64(counted.rate) / float64(arrivals)
			t.Logf("%s ×%v: %d arrivals, %.3f CumOps and %.3f Rate per arrival, %+v", ts.ID, scale, arrivals, cum, rate, got)
			if arrivals < slices*10 {
				t.Fatalf("%s ×%v: only %d arrivals", ts.ID, scale, arrivals)
			}
			if cum > 2.3 || rate > 0.1 {
				t.Errorf("%s ×%v: %.3f CumOps and %.3f Rate per arrival, want at most 2.3 and 0.1", ts.ID, scale, cum, rate)
			}
			if got.fallbacks != 0 {
				t.Errorf("%s ×%v: %d of %d targets fell back to bisection", ts.ID, scale, got.fallbacks, arrivals)
			}
		}
	}
}

// TestInverseFallbackExact drives the inversion where its interpolant must
// miss — a diurnal period shorter than a slice, a full-swing trough, slices
// holding a flash crowd's edges — and where a target sits exactly on a slice
// end, under both processes. The walk and the bisection fallback are each
// taken, and every schedule is still the reference-bisection schedule.
func TestInverseFallbackExact(t *testing.T) {
	const ms = time.Millisecond
	var total inversions
	for _, c := range []struct {
		name  string
		curve RateCurve
	}{
		{"period shorter than a slice", DiurnalRate{Base: 40_000, Swing: 0.9, Period: 300 * time.Microsecond}},
		{"full-swing trough", DiurnalRate{Base: 20_000, Swing: 1, Period: 8 * ms}},
		{"flash-crowd edges in slices", FlashCrowdRate{Base: 20_000, Spike: 8, Start: 3*ms + 400*time.Microsecond, Width: 2*ms + 200*time.Microsecond}},
		{"targets on slice ends", ConstantRate{PerSec: 1_000_000}},
	} {
		for _, proc := range []Process{Poisson, Deterministic} {
			cfg := ArrivalConfig{Process: proc, Curve: c.curve, Seed: 17}
			const horizon = 16 * ms
			if err := equalSchedules(cfg.Schedule(0, horizon), referenceSchedule(cfg, 0, horizon)); err != nil {
				t.Fatalf("%s, process %d: %v", c.name, proc, err)
			}
			var got inversions
			cfg.Curve = resolve(cfg.Curve)
			for k := int64(0); k < int64(horizon/ArrivalSlice); k++ {
				got.add(cfg, k)
			}
			t.Logf("%s, process %d: %+v", c.name, proc, got)
			total.exact += got.exact
			total.walked += got.walked
			total.fallbacks += got.fallbacks
			total.onEnd += got.onEnd
		}
	}
	if total.walked == 0 || total.fallbacks == 0 || total.onEnd == 0 {
		t.Fatalf("%+v: the walk, the fallback and a target on a slice end must each be exercised", total)
	}
}
