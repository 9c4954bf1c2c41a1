package loadgen

import (
	"fmt"
	"math"
	"testing"
	"time"

	"fluidmem/internal/clock"
)

// twoSum and twoProd are error-free: s + e and p + e are exactly a + b and
// a·b.
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bb := s - a
	return s, (a - (s - bb)) + (b - bb)
}

func twoProd(a, b float64) (p, e float64) {
	p = a * b
	return p, math.FMA(a, b, -p)
}

// exactPoly is p(x) = Σ k[j]·x^j by compensated Horner: hi + lo, as
// accurate as evaluating in twice the precision.
func exactPoly(k *[modelDeg + 1]float64, x float64) (hi, lo float64) {
	hi = k[modelDeg]
	for j := modelDeg - 1; j >= 0; j-- {
		p, pe := twoProd(hi, x)
		var se float64
		hi, se = twoSum(p, k[j])
		lo = lo*x + (pe + se)
	}
	return hi, lo
}

// modelGap is |CumOps(t) − CumOps(lo) − (p(t−mid) − p(lo−mid))| with the
// polynomial side evaluated to twice the precision: the model's own error,
// with no rounding of the test's.
func modelGap(c RateCurve, m *sliceModel, lo, mid, t time.Duration, cumLo float64) float64 {
	d, de := twoSum(c.CumOps(t), -cumLo)
	px, pxe := exactPoly(&m.k, float64(t-mid))
	pl, ple := exactPoly(&m.k, float64(lo-mid))
	s1, e1 := twoSum(d, -px)
	s2, e2 := twoSum(s1, pl)
	return math.Abs(s2 + (e1 + e2 + de - pxe + ple))
}

// TestSliceModelBound holds every slice model to its bound with an 8×
// margin: over 10⁶ instants per shape — the diurnal scenario's day and
// night curves, churn's dying tenant, the day curve at φ = 1.3 and at
// Swing 1, a constant rate and a flash crowd's three pieces, each at ×0.5
// to ×8 — on 1 000 slices from
// t = 0 to 60 s (the first 20 among them) at 1 000 instants each, ends
// included, the gap between CumOps and the model is at most err/8, and
// inside the slice the curve's computed Rate is at least rmin.
func TestSliceModelBound(t *testing.T) {
	const (
		slices   = 1000
		instants = 1000
		horizon  = 60_000 // slices
	)
	day := DiurnalRate{Base: 30_000, Swing: 0.9, Period: 100 * time.Millisecond}
	night := day
	night.Phase = math.Pi
	dies := DiurnalRate{Base: 25_000, Swing: 0.8, Period: 100 * time.Millisecond}
	tilted := day
	tilted.Phase = 1.3
	full := day
	full.Swing = 1
	for si, shape := range []struct {
		name  string
		curve RateCurve
	}{
		{"day", day}, {"night", night}, {"churn dies", dies},
		{"day φ=1.3", tilted}, {"day Swing 1", full}, {"constant", ConstantRate{PerSec: 10_000}},
		{"flash crowd", FlashCrowdRate{Base: 20_000, Spike: 8, Start: 20 * time.Second, Width: 20 * time.Second}},
	} {
		for _, scale := range []float64{0.5, 1, 2, 4, 8} {
			name := fmt.Sprintf("%s ×%v", shape.name, scale)
			c := resolve(Scale(shape.curve, scale))
			md := c.(modeler)
			r := clock.NewRand(uint64(si)*16 + uint64(scale*2))
			worst, modelled := 0.0, 0
			for i := 0; i < slices; i++ {
				k := int64(i)
				if i >= 20 {
					k = int64(r.Uint64() % horizon)
				}
				lo := time.Duration(k) * ArrivalSlice
				hi := lo + ArrivalSlice
				mid := lo + ArrivalSlice/2
				m, ok := md.model(lo, mid, hi)
				if !ok {
					continue
				}
				modelled++
				cumLo := c.CumOps(lo)
				for j := 0; j < instants; j++ {
					at := lo + time.Duration(r.Uint64()%uint64(ArrivalSlice+1))
					switch j {
					case 0:
						at = lo
					case 1:
						at = hi
					}
					gap := modelGap(c, &m, lo, mid, at, cumLo)
					if !(8*gap <= m.err) {
						t.Fatalf("%s slice %d at %v: |CumOps − model| = %g, bound %g is not 8× that", name, k, at, gap, m.err)
					}
					worst = max(worst, gap/m.err)
					// rmin bounds the integral's rate: inside the bracket,
					// not on a flash crowd's step at either end.
					if rate := c.Rate(at) / 1e9; at > lo && at < hi && rate < m.rmin {
						t.Fatalf("%s slice %d at %v: Rate %g ops/ns under rmin %g", name, k, at, rate, m.rmin)
					}
				}
			}
			if modelled < slices*9/10 {
				t.Fatalf("%s: only %d of %d slices modelled", name, modelled, slices)
			}
			t.Logf("%s: %d slices modelled, worst gap %.3f of the bound", name, modelled, worst)
		}
	}
}
