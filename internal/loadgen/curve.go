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

// modelDeg is the degree of a slice model. A diurnal slice expands cos to
// x^7 about its midpoint; the remainder, (ωh/2)^8/8! of Base·Swing/ω, is
// ≈ 10⁻¹⁴ ops on the scenarios' 100 ms day at ×1: under CumOps's own
// rounding at any instant.
const modelDeg = 7

// sliceModel is Λ on one bracket [lo, hi] in exact form: the polynomial
// p(x) = Σ k[j]·x^j in x = t − mid nanoseconds about the bracket's midpoint.
// Its bounds make it a certificate (DESIGN.md §17). Let F(t) be the exact
// integral of the curve's rate from lo, anchored on the computed CumOps(lo):
// a non-decreasing function whose rate is at least rmin > 0 ops per
// nanosecond on [lo, hi]. Then for every t in [lo, hi], in exact arithmetic
// on the stored coefficients,
//
//	|CumOps(t) − F(t)| + |F(t) − CumOps(lo) − (p(t−mid) − p(lo−mid))| ≤ err,
//
// where CumOps is the curve's computed value, rounding and all. cmax bounds
// |CumOps| on [lo, hi], for ScaledRate's rounding. The bounds take the
// coefficients' absolute errors (a phase, a cancellation); relative errors
// of a few dozen ulps, and the polynomial's evaluation, are the inverter's
// to add.
type sliceModel struct {
	k               [modelDeg + 1]float64
	err, rmin, cmax float64
}

// modeler is a curve that models itself on a bracket. ok is false where it
// cannot: no rate, an edge inside the bracket, a curvature the degree does
// not reach.
type modeler interface {
	model(lo, mid, hi time.Duration) (m sliceModel, ok bool)
}

// halfWidth is the bracket's widest side of its midpoint, in ns, and the
// largest |t| in it, in seconds.
func halfWidth(lo, mid, hi time.Duration) (w, s float64) {
	return float64(max(mid-lo, hi-mid)), max(math.Abs(secs(lo)), math.Abs(secs(hi)))
}

// linear is the model of a rate of perSec ops/s, known to within rateErr,
// on a bracket of half width w where |CumOps| ≤ cmax. An evaluation of
// CumOps rounds by at most 2^-51·cmax (t/1e9, a product, a sum); err charges
// it 8 times over, at t and at lo.
func linear(perSec, rateErr, cmax, w float64) (m sliceModel, ok bool) {
	m.k[1] = perSec * 1e-9
	kErr := (rateErr + 0x1p-51*math.Abs(perSec)) * 1e-9
	m.rmin = (m.k[1] - kErr) * (1 - 0x1p-50)
	m.cmax = cmax * (1 + 0x1p-50)
	m.err = 0x1p-47*m.cmax + 2*w*kErr
	return m, m.rmin > 0 && m.err < math.Inf(1)
}

func (c ConstantRate) model(lo, mid, hi time.Duration) (sliceModel, bool) {
	w, s := halfWidth(lo, mid, hi)
	return linear(c.PerSec, 0, math.Abs(c.PerSec)*s, w)
}

// model of a FlashCrowdRate is one of its three linear pieces; a bracket
// holding Start or Start+Width strictly inside has none.
func (c FlashCrowdRate) model(lo, mid, hi time.Duration) (sliceModel, bool) {
	end := c.Start + c.Width
	if c.Width < 0 || end < c.Start {
		return sliceModel{}, false
	}
	w, s := halfWidth(lo, mid, hi)
	extra := c.Base * (c.Spike - 1) // as CumOps computes it
	cmax := math.Abs(c.Base) * s
	switch {
	case hi <= c.Start:
		return linear(c.Base, 0, cmax, w)
	case lo >= end:
		return linear(c.Base, 0, cmax+math.Abs(extra)*secs(c.Width), w)
	case lo >= c.Start && hi <= end:
		return linear(c.Base+extra, 0x1p-51*(math.Abs(c.Base)+math.Abs(extra)),
			cmax+math.Abs(extra)*secs(hi-c.Start), w)
	}
	return sliceModel{}, false
}

func (c ScaledRate) model(lo, mid, hi time.Duration) (sliceModel, bool) {
	inner, ok := c.Curve.(modeler)
	if !ok || !(c.Factor > 0) {
		return sliceModel{}, false
	}
	m, ok := inner.model(lo, mid, hi)
	for j := range m.k {
		m.k[j] *= c.Factor
	}
	// Factor·CumOps rounds once more, at t and at lo.
	m.cmax *= c.Factor * (1 + 0x1p-50)
	m.err = c.Factor*m.err*(1+0x1p-50) + 0x1p-51*m.cmax
	m.rmin *= c.Factor * (1 - 0x1p-50)
	return m, ok && m.rmin > 0 && m.err < math.Inf(1)
}

// model of a diurnal curve: with K = Base·Swing/ω, a = ω/1e9 rad per ns and
// θ = ω·mid + φ, CumOps(mid+x) − CumOps(mid) is Base·x/1e9 +
// K·(cos θ − cos(θ + a·x)), and the Taylor series of the second term has
// k[j] = K·a^j/j!·(sin θ, cos θ, −sin θ, −cos θ)[(j−1) mod 4]. One Sincos a
// slice. err sums, each a bound over the bracket:
//
//   - CumOps's rounding at t and at lo: s = t/1e9, ωs+φ, cos, the
//     difference from cos φ, the product, the sum with s and the product
//     with Base come to at most 2^-51·|Base|·(s·(1+Swing) +
//     Swing/ω·(|ωs|+|φ|+4)) each, charging cos with 4 ulps where Go's is
//     within one; err charges that 4 times over;
//   - the truncation at t and at lo, 2·K·(a·w)^8/8!, for half width w;
//   - the coefficients' absolute error: the computed θ is off by Δθ ≤
//     2^-51·(|ωs|+|φ|) and Sincos by an ulp, which moves p(x) − p(x_lo) by
//     at most 2·(Δθ + 2^-47)·K·a·w·(1 + a·w); and Base/1e9 in k[1], which
//     may cancel against the sine term at a trough, by 2^-50·Base/1e9 per
//     nanosecond.
//
// rmin is Base/1e9·(1 + Swing·sin) at its least over the bracket, from sin
// θ − |cos θ|·a·w − (a·w)²/2, less the same phase and ulp errors.
func (c diurnalCurve) model(lo, mid, hi time.Duration) (m sliceModel, ok bool) {
	w, s := halfWidth(lo, mid, hi)
	a := c.w * 1e-9
	aw := a * w
	if !(c.Base > 0 && aw <= 1) {
		return m, false
	}
	k0 := c.Swing / c.w // as CumOps computes it
	swing := math.Abs(k0 * c.w)
	K := math.Abs(c.Base * k0)
	sm := secs(mid)
	sin, cos := math.Sincos(c.w*sm + c.Phase)
	sigma := [4]float64{sin, cos, -sin, -cos}
	term := c.Base * k0
	for j := 1; j <= modelDeg; j++ {
		term *= a
		m.k[j] = term * invFactorial[j] * sigma[(j-1)%4]
	}
	r0 := c.Base * 1e-9
	m.k[1] += r0

	dTheta := 0x1p-51*(math.Abs(c.w*sm)+math.Abs(c.Phase)) + 0x1p-50
	rounding := 0x1p-49 * c.Base * (s*(1+swing) + math.Abs(k0)*(math.Abs(c.w*s)+math.Abs(c.Phase)+4))
	aw2 := aw * aw
	aw4 := aw2 * aw2
	trunc := K * aw4 * aw4 / 40320 // (a·w)^(modelDeg+1)/(modelDeg+1)!
	coef := (dTheta+0x1p-47)*K*aw*(1+aw) + 0x1p-50*r0*w
	m.err = 2 * (rounding + trunc + coef)
	m.cmax = c.Base * (s + 2*math.Abs(k0)) * (1 + 0x1p-50)
	dip := swing*(dTheta*(1+aw)+math.Abs(cos)*aw+aw2/2) + 0x1p-48
	m.rmin = r0 * (1 + k0*c.w*sin - dip) * (1 - 0x1p-50)
	return m, m.rmin > 0 && m.err < math.Inf(1)
}

// invFactorial is 1/j!, for the Taylor coefficients.
var invFactorial = [modelDeg + 1]float64{1, 1, 1. / 2, 1. / 6, 1. / 24, 1. / 120, 1. / 720, 1. / 5040}

// cumInverse inverts CumOps over one bracket (lo, hi], an arrival slice:
// invert(target) is the earliest nanosecond t in (lo, hi] with CumOps(t) >=
// target (DESIGN.md §17). Where the curve models itself on the bracket,
// solve answers most targets without a curve call and most others with one;
// bisectCum answers the rest.
type cumInverse struct {
	c            RateCurve
	lo, hi       time.Duration
	cumLo, cumHi float64
	modelled     bool
	sliceModel
	mid       time.Duration
	xlo, xhi  float64               // lo − mid, hi − mid
	dk        [modelDeg + 1]float64 // p'(x) = Σ dk[j]·x^(j−1)
	pLo       float64               // p(xlo)
	m, q2, q3 float64               // the inverse cubic: x − xlo as a cubic in target − cumLo
	// solve places every nanosecond farther than d0 + |step|·(d1 +
	// |step|·d2) + |f|·(|1 − p'·g| + 2^-51)·dg ns from its x, for the step's
	// residual f and slope g.
	d0, d1, d2, dg float64
}

// reset makes inv the inverse of c over (lo, hi], whose CumOps are cumLo
// and cumHi.
func (inv *cumInverse) reset(c RateCurve, lo, hi time.Duration, cumLo, cumHi float64) {
	inv.c, inv.lo, inv.hi, inv.cumLo, inv.cumHi = c, lo, hi, cumLo, cumHi
	inv.mid = lo + (hi-lo)/2
	inv.modelled = false
	md, ok := c.(modeler)
	if !ok {
		return
	}
	if inv.sliceModel, ok = md.model(lo, inv.mid, hi); !ok {
		return
	}
	inv.xlo, inv.xhi = float64(lo-inv.mid), float64(hi-inv.mid)
	w := max(-inv.xlo, inv.xhi)
	// s0, s1, s2 bound |p|, |p'| and |p''| on [xlo, xhi].
	var s0, s1, s2 float64
	for j := modelDeg; j >= 1; j-- {
		inv.dk[j] = float64(j) * inv.k[j]
		a := math.Abs(inv.k[j])
		s0 = s0*w + a
		s1 = s1*w + float64(j)*a
		s2 = s2*w + float64(j*(j-1))*a
	}
	s0 *= w
	s2 /= w
	// The first guess: the inverse cubic through the model's ends, slopes
	// 1/p' (the chord where p' is equal at both or not positive).
	var pHi, dLo, dHi float64
	inv.pLo, dLo = inv.eval(inv.xlo)
	pHi, dHi = inv.eval(inv.xhi)
	d, span := pHi-inv.pLo, inv.xhi-inv.xlo
	inv.m, inv.q2, inv.q3 = span/d, 0, 0
	if dLo != dHi && dLo > 0 && dHi > 0 {
		inv.m, inv.q2, inv.q3 = hermite(d, span, 1/dLo, 1/dHi)
	}
	// The residual of one Newton-like step x1 = x0 − f̃·g on f(x) = p(x) −
	// p(xlo) − (target − cumLo), where g is the inverse cubic's slope, in
	// exact arithmetic at the float x1: f̃ is off by the evaluation and
	// three roundings (2^-46·s0 and 2^-51·λ); the step leaves
	// |f̃|·(|1 − p̃'·g| + 2^-51)·(1 + 2^-51), over the two roundings of the
	// computed 1 − p̃'·g, p̃' being off by 2^-46·s1 and the product by an
	// ulp, which leave |step|·2^-45·s1; x1's own rounding leaves
	// s1·2^-53·w; and the quadratic term is s2/2·(|step| + 2^-53·w)² ≤
	// s2·(step² + (2^-53·w)²). With the model's err, and over rmin, that is
	// the distance in ns within which an integer nanosecond is not certain.
	e := 0x1p-53 * w
	r0 := inv.err + 0x1p-46*s0 + 0x1p-51*math.Abs(cumHi-cumLo) + s1*e + s2*e*e
	over := (1 + 0x1p-40) / inv.rmin
	inv.d0, inv.d1, inv.d2, inv.dg = r0*over, 0x1p-45*s1*over, s2*over, (1+0x1p-51)*over
	inv.modelled = inv.d0 < 0.25 // else bisection answers every target
}

// hermite is x*(s0 + x*(k2 + x*k3)) through (dx, dy), slope s0 at 0 and s1 at dx.
func hermite(dx, dy, s0, s1 float64) (float64, float64, float64) {
	inv := 1 / dx
	a, b := (dy*inv-s0)*inv, (s1-s0)*inv
	return s0, 3*a - b, (b - 2*a) * inv
}

// eval is the model's p(x) and p'(x), by Estrin's scheme: pairs of
// coefficients, then powers x², x⁴, so that neither waits on a chain of
// seven products.
func (inv *cumInverse) eval(x float64) (p, dp float64) {
	k, d := &inv.k, &inv.dk
	x2 := x * x
	x4 := x2 * x2
	p = (k[1] + k[2]*x + (k[3]+k[4]*x)*x2 + (k[5]+k[6]*x+k[7]*x2)*x4) * x
	dp = d[1] + d[2]*x + (d[3]+d[4]*x)*x2 + (d[5]+d[6]*x+d[7]*x2)*x4
	return p, dp
}

// invert is the boundary: the model's answer, or bisection's.
func (inv *cumInverse) invert(target float64) time.Duration {
	b, sure, ok := inv.solve(target)
	switch {
	case !ok:
		return bisectCum(inv.c, target, inv.lo, inv.hi)
	case !sure && inv.c.CumOps(b) < target:
		return b + 1
	}
	return b
}

// solve is invert on the model. It solves p(x) − p(xlo) = target − cumLo by
// one step from the inverse cubic's guess, Newton's with the cubic's slope
// for 1/p' (no division), and places every nanosecond farther than the
// step's slack from x: within the model's bounds, CumOps(t) < target at each
// one below x and CumOps(t) >= target at each one above, so every probe a
// bisection makes there sees what the model says. With no nanosecond within
// the slack, b = mid + ⌈x⌉ is bisection's answer and sure is true. With one
// (the slack is under ½ ns, so there is at most one), b is that nanosecond,
// the only probe the model cannot answer: bisection's answer is b if
// CumOps(b) >= target, else b + 1. ok is false for a target outside
// (cumLo, cumHi], an unmodelled bracket, or a wider slack.
func (inv *cumInverse) solve(target float64) (b time.Duration, sure, ok bool) {
	if !inv.modelled || !(inv.cumLo < target && target <= inv.cumHi) {
		return 0, false, false
	}
	u := target - inv.cumLo
	x := inv.xlo + u*(inv.m+u*(inv.q2+u*inv.q3))
	g := inv.m + u*(2*inv.q2+3*u*inv.q3)
	if !(x >= inv.xlo) { // NaN included
		x = inv.xlo
	} else if x > inv.xhi {
		x = inv.xhi
	}
	p, dp := inv.eval(x)
	f := p - inv.pLo - u
	step := f * g
	x -= step
	step = math.Abs(step)
	slack := inv.d0 + step*(inv.d1+step*inv.d2) + math.Abs(f)*(math.Abs(1-dp*g)+0x1p-51)*inv.dg
	fl := math.Floor(x)
	if !(slack < 0.5 && fl >= inv.xlo && fl < inv.xhi) {
		return 0, false, false
	}
	b = inv.mid + time.Duration(fl)
	switch frac := x - fl; {
	case frac <= slack:
		return b, false, true
	case 1-frac <= slack:
		return b + 1, false, true
	}
	return b + 1, true, true
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
