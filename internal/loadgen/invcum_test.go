package loadgen

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/workload/ycsb"
)

// referenceSlice is sliceArrivals as it stood before guess-and-verify:
// bisection for every arrival, exp(-lambda) recomputed per Poisson chunk,
// reflection-based sort. The differential tests and the fuzzer hold the
// production generator to it timestamp for timestamp.
func referenceSlice(cfg ArrivalConfig, k int64) []time.Duration {
	var out []time.Duration
	start := time.Duration(k) * ArrivalSlice
	end := start + ArrivalSlice
	cumStart := cfg.Curve.CumOps(start)
	cumEnd := cfg.Curve.CumOps(end)
	clamp := func(t time.Duration) time.Duration {
		if t >= end {
			return end - 1
		}
		return t
	}
	if cfg.Process == Deterministic {
		for n := math.Floor(cumStart) + 1; n <= cumEnd; n++ {
			out = append(out, clamp(bisectCum(cfg.Curve, n, start, end)))
		}
		return out
	}
	r := clock.NewRand(sliceSeed(cfg.Seed, k))
	knuth := func(lambda float64) int {
		if lambda <= 0 {
			return 0
		}
		limit := math.Exp(-lambda)
		for k, p := 0, 1.0; ; k++ {
			if p *= r.Float64(); p <= limit {
				return k
			}
		}
	}
	lambda := cumEnd - cumStart
	n := 0
	rest := lambda
	for ; rest > 30; rest -= 30 {
		n += knuth(30)
	}
	n += knuth(rest)
	for i := 0; i < n; i++ {
		out = append(out, clamp(bisectCum(cfg.Curve, cumStart+r.Float64()*lambda, start, end)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// referenceSchedule is Schedule over referenceSlice.
func referenceSchedule(cfg ArrivalConfig, from, to time.Duration) []time.Duration {
	var out []time.Duration
	for k := int64(from / ArrivalSlice); time.Duration(k)*ArrivalSlice < to; k++ {
		for _, t := range referenceSlice(cfg, k) {
			if t >= from && t < to {
				out = append(out, t)
			}
		}
	}
	return out
}

func equalSchedules(a, b []time.Duration) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d arrivals, reference has %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("arrival %d at %v, reference at %v", i, a[i], b[i])
		}
	}
	return nil
}

// TestInvCumScenarioSchedulesMatchBisection is the differential oracle of
// the arrival generator: every tenant curve of every named scenario, at
// every offered-load scale the bench sweeps, under both processes, yields
// the reference-bisection schedule over 500 slices (2.5 scenario horizons).
func TestInvCumScenarioSchedulesMatchBisection(t *testing.T) {
	const slices = 500
	guessed, total := 0, 0
	for _, name := range ScenarioNames() {
		scen, err := NamedScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		for ti, ts := range scen.Tenants {
			for _, scale := range []float64{0.5, 1, 2, 4, 8} {
				for _, proc := range []Process{Poisson, Deterministic} {
					cfg := ArrivalConfig{Process: proc, Curve: Scale(ts.Curve, scale), Seed: sliceSeed(1, int64(ti)*2+2)}
					var buf []time.Duration
					var ord sliceOrder
					for k := int64(0); k < slices; k++ {
						buf = cfg.sliceArrivals(k, buf[:0], &ord)
						if err := equalSchedules(buf, referenceSlice(cfg, k)); err != nil {
							t.Fatalf("%s/%s ×%v process %d slice %d: %v", name, ts.ID, scale, proc, k, err)
						}
						total += len(buf)
					}
					// How often the guess stands on its own, for the
					// claim below.
					start, end := 100*ArrivalSlice, 101*ArrivalSlice
					lo, hi := cfg.Curve.CumOps(start), cfg.Curve.CumOps(end)
					for i := 1; i <= 16; i++ {
						if _, ok := guessCum(cfg.Curve, lo+(hi-lo)*float64(i)/16, start, end, lo, hi); ok {
							guessed++
						}
					}
				}
			}
		}
	}
	if total < 1_000_000 {
		t.Fatalf("only %d arrivals compared", total)
	}
	// The scenarios' curves are the fast path's home ground: if the guess
	// stopped verifying there, the schedules would still match (bisection
	// answers) and only the wall clock would notice.
	if cells := 10 * 16 * 10; guessed < cells*9/10 {
		t.Fatalf("guess verified on %d of %d scenario probes", guessed, cells)
	}
}

// invCase is one inversion problem; the bracket's cumulative values are
// always taken from the curve, as sliceArrivals does.
type invCase struct {
	name   string
	curve  RateCurve
	lo, hi time.Duration
	target float64
}

func (c invCase) check(t *testing.T) (guessed bool) {
	t.Helper()
	cumLo, cumHi := c.curve.CumOps(c.lo), c.curve.CumOps(c.hi)
	want := bisectCum(c.curve, c.target, c.lo, c.hi)
	if got := invCum(c.curve, c.target, c.lo, c.hi, cumLo, cumHi); got != want {
		t.Fatalf("%s: invCum(%v in (%v, %v]) = %v, bisection %v", c.name, c.target, c.lo, c.hi, got, want)
	}
	g, ok := guessCum(c.curve, c.target, c.lo, c.hi, cumLo, cumHi)
	if ok && g != want {
		t.Fatalf("%s: guessCum verified %v, bisection %v", c.name, g, want)
	}
	return ok
}

// TestInvCumEdgesMatchBisection walks the inversion's edges: targets on and
// beyond the bracket's ends, one- and two-nanosecond brackets, zero and
// vanishing rates, and FlashCrowdRate's two steps.
func TestInvCumEdgesMatchBisection(t *testing.T) {
	const ms = time.Millisecond
	diurnal := DiurnalRate{Base: 30_000, Swing: 0.9, Period: 100 * ms}
	flash := FlashCrowdRate{Base: 20_000, Spike: 8, Start: 75*ms + 400*time.Microsecond, Width: 50 * ms}

	// Targets on and around the ends of the bracket: these never reach the
	// guess, whose precondition is cumLo < target <= cumHi.
	for _, c := range []RateCurve{ConstantRate{PerSec: 40_000}, diurnal, flash} {
		for _, k := range []time.Duration{0, 7, 75, 125} {
			lo, hi := k*ms, (k+1)*ms
			cumLo, cumHi := c.CumOps(lo), c.CumOps(hi)
			for _, tc := range []invCase{
				{"target == cumStart", c, lo, hi, cumLo},
				{"target below cumStart", c, lo, hi, cumLo - 1},
				{"target == cumEnd", c, lo, hi, cumHi},
				{"target one ulp past cumEnd", c, lo, hi, math.Nextafter(cumHi, math.Inf(1))},
				{"target beyond cumEnd", c, lo, hi, cumHi + 3},
				{"one-ns bracket", c, lo + 5, lo + 6, c.CumOps(lo + 6)},
				{"two-ns bracket, first", c, lo + 5, lo + 7, c.CumOps(lo + 6)},
				{"two-ns bracket, second", c, lo + 5, lo + 7, c.CumOps(lo + 7)},
			} {
				tc.name = fmt.Sprintf("%T slice %d: %s", c, k, tc.name)
				ok := tc.check(t)
				if outside := !(cumLo < tc.target && tc.target <= cumHi); ok && outside {
					t.Fatalf("%s: guess accepted a target outside its bracket", tc.name)
				}
			}
		}
	}

	// No rate, no guess: every target falls back.
	for _, target := range []float64{0, 0.5, 1} {
		if (invCase{"ConstantRate{0}", ConstantRate{}, 3 * ms, 4 * ms, target}).check(t) {
			t.Fatalf("ConstantRate{0} target %v: guess verified on a flat curve", target)
		}
	}
	dead := FlashCrowdRate{Base: 20_000, Spike: 0, Start: 2 * ms, Width: 2 * ms}
	if (invCase{"dead burst", dead, 3*ms - 500, 3*ms + 500, 40}).check(t) {
		t.Fatal("guess verified on FlashCrowdRate's zero-rate plateau")
	}

	// A full swing through its trough, slice by slice and across brackets
	// that straddle the zero: the rate vanishes, CumOps plateaus into
	// rounding noise, and the guess must either agree with bisection or
	// stand down.
	trough := DiurnalRate{Base: 20_000, Swing: 1, Period: 8 * ms} // zero rate at 6 ms, 14 ms, …
	sweep := func(name string, c RateCurve, lo, hi time.Duration) (guessed, n int) {
		cumLo, cumHi := c.CumOps(lo), c.CumOps(hi)
		for i := 0; i <= 400; i++ {
			tc := invCase{name, c, lo, hi, cumLo + (cumHi-cumLo)*float64(i)/400}
			if tc.check(t) {
				guessed++
			}
			n++
		}
		for target := math.Ceil(cumLo); target <= cumHi; target++ {
			if (invCase{name, c, lo, hi, target}).check(t) {
				guessed++
			}
			n++
		}
		return guessed, n
	}
	for k := time.Duration(0); k < 32; k++ {
		sweep("trough slice", trough, k*ms, (k+1)*ms)
	}
	for _, w := range []time.Duration{10, 1000, 100_000} {
		sweep("trough bracket", trough, 6*ms-w, 6*ms+w)
		sweep("trough bracket, late", Scale(trough, 8), 1006*ms-w, 1006*ms+w)
	}

	// FlashCrowdRate's steps, inside slices that straddle Start and
	// Start+Width: targets on both sides of each kink. A guess that lands
	// across a step from its target sees the wrong rate, so every one of
	// these curves must also send some targets to the fallback.
	for _, c := range []RateCurve{flash, Scale(flash, 0.5), dead,
		FlashCrowdRate{Base: 150_000, Spike: 0.01, Start: 75*ms + 999_999, Width: ms}} {
		fallbacks := 0
		for k := time.Duration(0); k < 130; k++ {
			g, n := sweep("flash crowd", c, k*ms, (k+1)*ms)
			fallbacks += n - g
		}
		if fallbacks == 0 {
			t.Fatalf("%+v: no target fell back to bisection; the fallback is not covered here", c)
		}
	}
}

// parentDiurnal is DiurnalRate as its methods stood before a stream resolved
// its invariants: ω and cos φ recomputed on every call.
type parentDiurnal DiurnalRate

func (c parentDiurnal) omega() float64 { return 2 * math.Pi / secs(c.Period) }

func (c parentDiurnal) Rate(t time.Duration) float64 {
	return c.Base * (1 + c.Swing*math.Sin(c.omega()*secs(t)+c.Phase))
}

func (c parentDiurnal) CumOps(t time.Duration) float64 {
	w := c.omega()
	s := secs(t)
	return c.Base * (s + c.Swing/w*(math.Cos(c.Phase)-math.Cos(w*s+c.Phase)))
}

// TestResolvedDiurnalBitEqual holds the curve an arrival stream evaluates to
// the struct's own methods and to the parent's expressions, bit for bit, at
// 10⁵ instants over three periods (odd nanoseconds included), for φ ∈ {0, π,
// 1.3}, bare and under Scale(…, 2).
func TestResolvedDiurnalBitEqual(t *testing.T) {
	const n = 100_000
	for _, phase := range []float64{0, math.Pi, 1.3} {
		d := DiurnalRate{Base: 30_000, Swing: 0.9, Period: 100 * time.Millisecond, Phase: phase}
		for _, scale := range []float64{1, 2} {
			curve := Scale(d, scale)
			parent := Scale(parentDiurnal(d), scale)
			stream := NewArrivals(ArrivalConfig{Curve: curve}, 0, time.Second).cfg.Curve
			inner := stream
			if s, ok := stream.(ScaledRate); ok {
				inner = s.Curve
			}
			if _, ok := inner.(diurnalCurve); !ok {
				t.Fatalf("φ=%v ×%v: the stream evaluates %T, not the resolved curve", phase, scale, stream)
			}
			for i := 0; i < n; i++ {
				at := time.Duration(i)*(3*d.Period/n) + time.Duration(i%997)
				for _, c := range []struct {
					what      string
					got, want float64
				}{
					{"CumOps", stream.CumOps(at), curve.CumOps(at)},
					{"Rate", stream.Rate(at), curve.Rate(at)},
					{"parent CumOps", stream.CumOps(at), parent.CumOps(at)},
					{"parent Rate", stream.Rate(at), parent.Rate(at)},
				} {
					if math.Float64bits(c.got) != math.Float64bits(c.want) {
						t.Fatalf("φ=%v ×%v %s(%v) = %v, want %v", phase, scale, c.what, at, c.got, c.want)
					}
				}
			}
		}
	}
}

// parentZipfian is ycsb.Zipfian as it stood while Next computed 1+0.5^θ on
// every draw that reached the second case: the constructor and Next, copied.
type parentZipfian struct {
	n                        int
	theta, alpha, zetan, eta float64
	rng                      *clock.Rand
}

func newParentZipfian(n int, theta float64, seed uint64) *parentZipfian {
	zeta := func(n int) float64 {
		sum := 0.0
		for i := 1; i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	z := &parentZipfian{n: n, theta: theta, rng: clock.NewRand(seed)}
	z.zetan = zeta(n)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *parentZipfian) Next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	var rank int
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, z.theta):
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.n {
		rank = z.n - 1
	}
	v := uint64(rank)
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return int(v % uint64(z.n))
}

// TestZipfianMatchesParent holds ycsb.Zipfian, whose 1+0.5^θ is computed
// once in NewZipfian, to the parent's generator draw for draw: 10⁶ draws for
// each n ∈ {1, 2, 16, 96, 10 000} and θ ∈ {0.5, 0.99}.
func TestZipfianMatchesParent(t *testing.T) {
	for _, n := range []int{1, 2, 16, 96, 10_000} {
		for _, theta := range []float64{0.5, 0.99} {
			seed := uint64(n)*31 + uint64(theta*100)
			z, err := ycsb.NewZipfian(n, theta, seed)
			if err != nil {
				t.Fatal(err)
			}
			parent := newParentZipfian(n, theta, seed)
			ranks := map[int]bool{}
			for i := 0; i < 1_000_000; i++ {
				got, want := z.Next(), parent.Next()
				if got != want {
					t.Fatalf("n=%d θ=%v draw %d: %d, parent %d", n, theta, i, got, want)
				}
				ranks[got] = true
			}
			if n > 2 && len(ranks) < 3 {
				t.Fatalf("n=%d θ=%v: only %d distinct keys; the third case never ran", n, theta, len(ranks))
			}
		}
	}
}
