package loadgen

import (
	"math"
	"testing"
	"time"
)

// numericCum integrates curve.Rate over [0, t) with the trapezoid rule — the
// reference the closed-form CumOps implementations are checked against.
func numericCum(c RateCurve, t time.Duration, steps int) float64 {
	h := float64(t) / float64(steps)
	sum := 0.0
	for i := 0; i < steps; i++ {
		a := time.Duration(float64(i) * h)
		b := time.Duration(float64(i+1) * h)
		sum += (c.Rate(a) + c.Rate(b)) / 2 * secs(b-a)
	}
	return sum
}

func TestCurveCumMatchesRateIntegral(t *testing.T) {
	curves := map[string]RateCurve{
		"constant": ConstantRate{PerSec: 50_000},
		"diurnal":  DiurnalRate{Base: 30_000, Swing: 0.9, Period: 100 * time.Millisecond, Phase: 1.1},
		"flash": FlashCrowdRate{Base: 20_000, Spike: 8,
			Start: 30 * time.Millisecond, Width: 40 * time.Millisecond},
		"scaled": Scale(DiurnalRate{Base: 10_000, Swing: 0.5, Period: 50 * time.Millisecond}, 3.5),
	}
	for name, c := range curves {
		if got := c.CumOps(0); got != 0 {
			t.Errorf("%s: CumOps(0) = %v, want 0", name, got)
		}
		for _, at := range []time.Duration{
			time.Millisecond, 29 * time.Millisecond, 31 * time.Millisecond,
			70 * time.Millisecond, 200 * time.Millisecond,
		} {
			want := numericCum(c, at, 20_000)
			got := c.CumOps(at)
			// Tolerance covers trapezoid error at step discontinuities
			// (one step of height Δrate contributes ≤ Δrate·h/2 ≈ 0.5 ops).
			if math.Abs(got-want) > math.Max(1e-6*want, 0.5) {
				t.Errorf("%s: CumOps(%v) = %v, numeric integral %v", name, at, got, want)
			}
		}
	}
}

func TestCurveMonotone(t *testing.T) {
	c := DiurnalRate{Base: 1000, Swing: 1, Period: 10 * time.Millisecond}
	prev := 0.0
	for at := time.Duration(0); at <= 40*time.Millisecond; at += 37 * time.Microsecond {
		cum := c.CumOps(at)
		if cum < prev {
			t.Fatalf("CumOps decreased at %v: %v < %v", at, cum, prev)
		}
		if r := c.Rate(at); r < 0 {
			t.Fatalf("Rate(%v) = %v < 0", at, r)
		}
		prev = cum
	}
}

func TestInvCumFindsFirstCrossing(t *testing.T) {
	c := ConstantRate{PerSec: 1_000_000} // 1 op per µs
	got := invCum(c, 5, 0, time.Millisecond, c.CumOps(0), c.CumOps(time.Millisecond))
	if want := 5 * time.Microsecond; got != want {
		t.Fatalf("invCum(5 ops at 1/µs) = %v, want %v", got, want)
	}
	if cum := c.CumOps(got); cum < 5 {
		t.Fatalf("CumOps(invCum) = %v < target", cum)
	}
	if cum := c.CumOps(got - 1); cum >= 5 {
		t.Fatalf("invCum not minimal: CumOps(t-1ns) = %v >= target", cum)
	}
}

func TestScaleIdentity(t *testing.T) {
	c := ConstantRate{PerSec: 10}
	if Scale(c, 1) != RateCurve(c) {
		t.Fatal("Scale(c, 1) should return c unchanged")
	}
	s := Scale(c, 2.5)
	if got := s.Rate(0); got != 25 {
		t.Fatalf("scaled rate = %v, want 25", got)
	}
	if got, want := s.CumOps(2*time.Second), 50.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("scaled CumOps = %v, want %v", got, want)
	}
}

func TestFlashCrowdShape(t *testing.T) {
	c := FlashCrowdRate{Base: 100, Spike: 8, Start: time.Second, Width: time.Second}
	if got := c.Rate(500 * time.Millisecond); got != 100 {
		t.Fatalf("pre-spike rate %v", got)
	}
	if got := c.Rate(1500 * time.Millisecond); got != 800 {
		t.Fatalf("in-spike rate %v", got)
	}
	if got := c.Rate(2 * time.Second); got != 100 {
		t.Fatalf("post-spike rate %v", got)
	}
	// Whole-run measure: 3 s of base + 1 s of (8−1)× extra.
	if got, want := c.CumOps(3*time.Second), 300.0+700.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("CumOps(3s) = %v, want %v", got, want)
	}
}
