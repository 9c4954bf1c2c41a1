package loadgen

import (
	"math"
	"time"
)

// RateCurve is an offered-load shape: the instantaneous arrival rate of an
// open-loop traffic source as a function of virtual time. Curves are pure:
// no state, no randomness, so the same curve evaluated twice is bit-equal —
// the property the arrival schedules (and their determinism oracle) build
// on.
//
// CumOps is the load-bearing method: the expected number of arrivals in
// [0, t), i.e. the integral of Rate. Both the deterministic-rate process
// (arrivals where CumOps crosses successive integers) and the
// non-homogeneous Poisson process (inversion sampling of the conditional
// cumulative measure) are generated purely from CumOps, so a curve only
// needs a closed-form integral, never a closed-form inverse.
type RateCurve interface {
	// Rate reports the instantaneous arrival rate at virtual time t, in
	// operations per second of virtual time. Must be non-negative.
	Rate(t time.Duration) float64
	// CumOps reports the expected number of arrivals in [0, t): the
	// integral of Rate over [0, t). Must be continuous, non-decreasing,
	// and zero at t = 0.
	CumOps(t time.Duration) float64
}

// secs converts virtual time to float seconds for curve arithmetic.
func secs(t time.Duration) float64 { return float64(t) / float64(time.Second) }

// ConstantRate offers a fixed load.
type ConstantRate struct {
	// PerSec is the arrival rate in ops per second of virtual time.
	PerSec float64
}

func (c ConstantRate) Rate(time.Duration) float64     { return c.PerSec }
func (c ConstantRate) CumOps(t time.Duration) float64 { return c.PerSec * secs(t) }

// DiurnalRate is the datacenter day/night sinusoid:
//
//	rate(t) = Base * (1 + Swing*sin(2πt/Period + Phase))
//
// with Swing in [0, 1] (Swing = 1 swings between 0 and 2×Base). Two tenants
// with Phase π apart model anti-correlated day/night populations — the load
// shape the planners are supposed to arbitrage.
type DiurnalRate struct {
	// Base is the mean rate in ops/sec; Swing the relative amplitude.
	Base, Swing float64
	// Period is the full day length in virtual time.
	Period time.Duration
	// Phase offsets the sinusoid in radians.
	Phase float64
}

func (c DiurnalRate) Rate(t time.Duration) float64   { return c.resolved().Rate(t) }
func (c DiurnalRate) CumOps(t time.Duration) float64 { return c.resolved().CumOps(t) }

// diurnalCurve is a DiurnalRate with ω = 2π/Period and cos φ computed once,
// as a stream evaluates it (resolve). It holds the curve's only expressions,
// which the struct's own methods reach by resolving afresh: bit-equal.
type diurnalCurve struct {
	DiurnalRate
	w, cosPhase float64
}

func (c DiurnalRate) resolved() diurnalCurve {
	return diurnalCurve{c, 2 * math.Pi / secs(c.Period), math.Cos(c.Phase)}
}

func (c diurnalCurve) Rate(t time.Duration) float64 {
	return c.Base * (1 + c.Swing*math.Sin(c.w*secs(t)+c.Phase))
}

func (c diurnalCurve) CumOps(t time.Duration) float64 {
	s := secs(t)
	// ∫ Base*(1+Swing*sin(wt+φ)) dt = Base*(t + Swing/w*(cos φ − cos(wt+φ)))
	return c.Base * (s + c.Swing/c.w*(c.cosPhase-math.Cos(c.w*s+c.Phase)))
}

// FlashCrowdRate is a step spike: Base load everywhere, multiplied by Spike
// during [Start, Start+Width) — the front-page / breaking-news shape whose
// queueing transient closed-loop benches cannot exhibit.
type FlashCrowdRate struct {
	// Base is the quiescent rate in ops/sec; Spike the multiplier applied
	// during the crowd (Spike = 8 means 8× Base).
	Base, Spike float64
	// Start and Width place the crowd in virtual time.
	Start, Width time.Duration
}

func (c FlashCrowdRate) Rate(t time.Duration) float64 {
	if t >= c.Start && t < c.Start+c.Width {
		return c.Base * c.Spike
	}
	return c.Base
}

func (c FlashCrowdRate) CumOps(t time.Duration) float64 {
	cum := c.Base * secs(t)
	// Add the extra (Spike−1)×Base measure accumulated inside the burst.
	if t > c.Start {
		in := t - c.Start
		if in > c.Width {
			in = c.Width
		}
		cum += c.Base * (c.Spike - 1) * secs(in)
	}
	return cum
}

// ScaledRate multiplies an inner curve by a constant factor — the
// offered-load sweep knob the knee-of-curve experiment turns.
type ScaledRate struct {
	Curve  RateCurve
	Factor float64
}

func (c ScaledRate) Rate(t time.Duration) float64   { return c.Factor * c.Curve.Rate(t) }
func (c ScaledRate) CumOps(t time.Duration) float64 { return c.Factor * c.Curve.CumOps(t) }

// Scale wraps curve so its rate (and cumulative measure) is multiplied by
// factor; factor 1 returns the curve unchanged.
func Scale(curve RateCurve, factor float64) RateCurve {
	if factor == 1 {
		return curve
	}
	return ScaledRate{Curve: curve, Factor: factor}
}

// resolve is the curve an arrival stream evaluates: a DiurnalRate, bare or
// under ScaledRate, computes its invariants once, not on every call.
func resolve(curve RateCurve) RateCurve {
	switch c := curve.(type) {
	case DiurnalRate:
		return c.resolved()
	case ScaledRate:
		return ScaledRate{resolve(c.Curve), c.Factor}
	}
	return curve
}

// cumInverse inverts CumOps over one bracket (lo, hi], an arrival slice:
// invert(target) is the earliest nanosecond t in (lo, hi] with CumOps(t) >=
// target (DESIGN.md §17). guess proposes t from cubic Hermite interpolants
// of CumOps and its inverse through the bracket's ends (chords where Rate is
// equal at both, or zero at one) and verifies it; bisectCum does the rest.
type cumInverse struct {
	c                     RateCurve
	lo, hi                time.Duration
	cumLo, cumHi          float64
	curved                bool
	m, q2, q3, r0, p2, p3 float64 // inverse cubic (ns/op), forward (ops/ns)
}

func newCumInverse(c RateCurve, lo, hi time.Duration, cumLo, cumHi float64) cumInverse {
	inv := cumInverse{c: c, lo: lo, hi: hi, cumLo: cumLo, cumHi: cumHi}
	span, d := float64(hi-lo), cumHi-cumLo
	inv.m, inv.r0 = span/d, d/span
	rLo, rHi := c.Rate(lo)/float64(time.Second), c.Rate(hi)/float64(time.Second)
	if inv.curved = rLo != rHi && rLo > 0 && rHi > 0; inv.curved {
		inv.m, inv.q2, inv.q3 = hermite(d, span, 1/rLo, 1/rHi)
		inv.r0, inv.p2, inv.p3 = hermite(span, d, rLo, rHi)
	}
	return inv
}

// hermite is x*(s0 + x*(k2 + x*k3)) through (dx, dy), slope s0 at 0 and s1 at dx.
func hermite(dx, dy, s0, s1 float64) (float64, float64, float64) {
	a, b := dy-s0*dx, s1-s0
	return s0, (3*a/dx - b) / dx, (b - 2*a/dx) / (dx * dx)
}

// invert is the boundary: the verified guess, or bisection's.
func (inv *cumInverse) invert(target float64) time.Duration {
	if t, ok := inv.guess(target); ok {
		return t
	}
	return bisectCum(inv.c, target, inv.lo, inv.hi)
}

// bisectCum is invert's reference and fallback: a binary search over integer
// nanoseconds (20 steps for a 1 ms slice), bit-deterministic because it
// compares computed floats only against the fixed target.
func bisectCum(c RateCurve, target float64, lo, hi time.Duration) time.Duration {
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if c.CumOps(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// guessMinRise is the least trusted rise of CumOps across a boundary,
// relative to the target's magnitude: 2^8 ulps.
const guessMinRise = 1.0 / (1 << 44)

// candidate is the first whole nanosecond in (lo, hi] at or after the inverse
// cubic's crossing of cumLo+u, refined by one Newton step on the forward
// cubic that takes the inverse's slope, and the forward cubic's rate there.
func (inv *cumInverse) candidate(u float64) (time.Duration, float64) {
	tau, rate := u*inv.m, inv.r0
	if inv.curved {
		tau += u * u * (inv.q2 + u*inv.q3)
		rate += tau * (2*inv.p2 + 3*tau*inv.p3)
		tau -= (tau*(inv.r0+tau*(inv.p2+tau*inv.p3)) - u) * (inv.m + u*(2*inv.q2+3*u*inv.q3))
	}
	if !(tau >= 1) { // NaN included
		tau = 1
	}
	return inv.lo + time.Duration(math.Ceil(min(tau, float64(inv.hi-inv.lo)))), rate
}

// guess is invert by guess-and-verify: the candidate, then a walk of at most
// 3 ns toward the crossing, accepting b only after evaluating
// CumOps(b-1) < target <= CumOps(b). It reports false for a target outside
// (cumLo, cumHi], an exhausted walk or an untrusted boundary.
func (inv *cumInverse) guess(target float64) (time.Duration, bool) {
	if !(inv.cumLo < target && target <= inv.cumHi) {
		return 0, false
	}
	b, rate := inv.candidate(target - inv.cumLo)
	cb := inv.c.CumOps(b)
	for step := 0; step <= 3; step++ {
		if cb >= target {
			below := inv.c.CumOps(b - 1) // at b-1 == lo this is cumLo < target
			if below < target {
				return b, trusted(cb-below, rate, target)
			}
			b, cb = b-1, below
		} else {
			above := inv.c.CumOps(b + 1) // b < hi: CumOps(hi) is cumHi >= target
			if above >= target {
				return b + 1, trusted(above-cb, rate, target)
			}
			b, cb = b+1, above
		}
	}
	return 0, false
}

// trusted decides whether a verified boundary can stand for bisection's.
// Where a nanosecond of rate adds less to CumOps than its rounding noise,
// CumOps(t) >= target flickers near the crossing, and which boundary
// bisection finds depends on its probes. Two free signs: a rise within 2^8
// ulps of the target's magnitude, or 2x off the interpolant's rate.
func trusted(rise, rate, target float64) bool {
	return rise >= guessMinRise*math.Max(1, math.Abs(target)) && rise <= 2*rate && 2*rise >= rate
}
