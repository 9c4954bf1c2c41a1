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

// invCum finds the earliest nanosecond t in (lo, hi] with CumOps(t) >=
// target, given cumLo = CumOps(lo) and cumHi = CumOps(hi). That t is the
// boundary of a predicate monotone in t, so every search that lands on it
// returns the same t: guessCum gets there in a few curve evaluations, and
// whatever it cannot verify goes to bisectCum (DESIGN.md §17).
func invCum(c RateCurve, target float64, lo, hi time.Duration, cumLo, cumHi float64) time.Duration {
	if t, ok := guessCum(c, target, lo, hi, cumLo, cumHi); ok {
		return t
	}
	return bisectCum(c, target, lo, hi)
}

// bisectCum is invCum's reference implementation and its fallback: a binary
// search over integer nanoseconds, log2(hi-lo) iterations (20 for a 1 ms
// slice), bit-deterministic because it never compares computed floats
// against each other, only against the fixed target.
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

const (
	// guessRounds bounds guessCum's Newton steps: smooth curves verify in
	// one or two, a guess across FlashCrowdRate's step can use them up.
	guessRounds = 3
	// guessMinRise is the least trusted rise of CumOps across a boundary,
	// relative to the target's magnitude: 2^8 ulps.
	guessMinRise = 1.0 / (1 << 44)
)

// guessCum is invCum by guess-and-verify: a chord through the bracket's ends,
// Newton steps on the closed-form Rate, and acceptance of a nanosecond b only
// after evaluating the boundary itself, CumOps(b-1) < target <= CumOps(b).
// It reports false, leaving the answer to bisection over the whole bracket,
// when the target is outside (cumLo, cumHi], the rate is zero, a step leaves
// the bracket, the rounds run out, or the boundary is not trusted.
func guessCum(c RateCurve, target float64, lo, hi time.Duration, cumLo, cumHi float64) (time.Duration, bool) {
	if !(cumLo < target && target <= cumHi) {
		return 0, false
	}
	span := float64(hi - lo)
	minRise := guessMinRise * math.Max(1, math.Abs(target))
	g := lo + time.Duration(span*(target-cumLo)/(cumHi-cumLo))
	if g <= lo {
		g = lo + 1
	}
	cg := c.CumOps(g)
	for round := 0; round < guessRounds; round++ {
		rate := c.Rate(g) / float64(time.Second) // ops per nanosecond
		// The crossing is step nanoseconds from g; the boundary is the
		// first whole nanosecond at or after it.
		step := math.Ceil((target - cg) / rate)
		if !(rate > 0 && math.Abs(step) <= span) {
			return 0, false
		}
		b := max(lo+1, min(hi, g+time.Duration(step)))
		cb := cg
		if b != g {
			cb = c.CumOps(b)
		}
		if cb >= target {
			below := cg
			if b-1 != g {
				below = c.CumOps(b - 1) // at b-1 == lo this is cumLo < target
			}
			if below < target {
				return b, trusted(cb-below, rate, minRise)
			}
			g, cg = b-1, below
		} else {
			// b < hi here: CumOps(hi) is cumHi >= target.
			above := cg
			if b+1 != g {
				above = c.CumOps(b + 1)
			}
			if above >= target {
				return b + 1, trusted(above-cb, rate, minRise)
			}
			g, cg = b+1, above
		}
	}
	return 0, false
}

// trusted decides whether a verified boundary can stand for bisection's.
// Where one nanosecond of rate adds less to CumOps than its rounding noise,
// the predicate CumOps(t) >= target flickers around the crossing and which
// of its boundaries bisection lands on depends on its probe sequence. Two
// free signs of that: the rise across the boundary is within a few hundred
// ulps of the target's magnitude, or it is more than 2x off the closed-form
// rate (noise above the ulp level, or a kink since the last Newton point).
func trusted(rise, rate, minRise float64) bool {
	return rise >= minRise && rise <= 2*rate && 2*rise >= rate
}
