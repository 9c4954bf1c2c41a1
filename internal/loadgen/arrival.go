package loadgen

import (
	"math"
	"time"

	"fluidmem/internal/clock"
)

// Process picks the arrival point process.
type Process uint8

const (
	// Poisson is a non-homogeneous Poisson process whose intensity is the
	// rate curve: per slice, the arrival count is Poisson(Λ) for the
	// slice's cumulative measure Λ, and each arrival time is drawn by
	// inversion of the conditional cumulative measure — exactly the
	// open-loop client population model (many independent users).
	Poisson Process = iota
	// Deterministic places arrivals where the curve's cumulative measure
	// crosses successive integers — a jitter-free paced load, useful for
	// isolating queueing effects from arrival burstiness.
	Deterministic
)

// ArrivalSlice is the generation quantum of an arrival schedule. Arrivals
// inside each slice are produced by a PRNG seeded from (seed, slice index)
// alone, never from generator state carried across slices. That single
// design choice buys the three properties the fuzzer pins:
//
//   - bitwise repeatability: same (process, curve, seed) → same schedule;
//   - monotonicity: slices tile time in order and arrivals sort in-slice;
//   - split/merge invariance: Schedule(a, c) equals Schedule(a, b) followed
//     by Schedule(b, c) for ANY split point b, because every slice
//     regenerates identically and each timestamp belongs to exactly one
//     half-open window.
const ArrivalSlice = time.Millisecond

// ArrivalConfig describes one tenant's open-loop arrival stream.
type ArrivalConfig struct {
	Process Process
	Curve   RateCurve
	// Seed isolates this stream: two tenants with different seeds draw
	// independent arrival randomness even on identical curves.
	Seed uint64
}

// sliceSeed derives the PRNG seed for slice k (SplitMix64-style finalizer
// over the stream seed and the slice index, so adjacent slices decorrelate).
func sliceSeed(seed uint64, k int64) uint64 {
	z := seed + uint64(k)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// poissonCount draws a Poisson(lambda) variate with Knuth's product method,
// chunked so exp(-lambda) never underflows. Cost is O(lambda) PRNG draws —
// about one extra draw per generated arrival, which is fine at slice scale.
func poissonCount(r *clock.Rand, lambda float64) int {
	n := 0
	for lambda > 30 {
		n += knuthPoisson(r, expNeg30)
		lambda -= 30
	}
	if lambda <= 0 {
		return n
	}
	return n + knuthPoisson(r, math.Exp(-lambda))
}

var expNeg30 = math.Exp(-30)

// knuthPoisson counts uniform draws until their product falls to exp(-lambda).
func knuthPoisson(r *clock.Rand, limit float64) int {
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// sliceArrivals appends slice k's arrivals — every timestamp in
// [k*ArrivalSlice, (k+1)*ArrivalSlice) — to out in ascending order, using
// ord's buffers to order them.
func (cfg ArrivalConfig) sliceArrivals(k int64, out []time.Duration, ord *sliceOrder) []time.Duration {
	start := time.Duration(k) * ArrivalSlice
	end := start + ArrivalSlice
	cumStart := cfg.Curve.CumOps(start)
	cumEnd := cfg.Curve.CumOps(end)
	switch cfg.Process {
	case Deterministic:
		// Arrivals at integer crossings of the cumulative measure: the
		// half-open measure intervals (cumStart, cumEnd] tile the real
		// line across slices, so each crossing is emitted exactly once.
		n := math.Floor(cumStart) + 1
		if n > cumEnd {
			break
		}
		inv := newCumInverse(cfg.Curve, start, end, cumStart, cumEnd)
		for ; n <= cumEnd; n++ {
			t := inv.invert(n)
			if t >= end {
				t = end - 1 // boundary crossing stays in this slice's window
			}
			out = append(out, t)
		}
	default: // Poisson
		r := clock.NewRand(sliceSeed(cfg.Seed, k))
		lambda := cumEnd - cumStart
		n := poissonCount(r, lambda)
		if n == 0 {
			break
		}
		inv := newCumInverse(cfg.Curve, start, end, cumStart, cumEnd)
		first := len(out)
		for i := 0; i < n; i++ {
			// u in [0,1) maps to measure in [cumStart, cumEnd): inversion
			// sampling of the conditional (non-homogeneous) distribution.
			target := cumStart + r.Float64()*lambda
			t := inv.invert(target)
			if t >= end {
				t = end - 1
			}
			out = append(out, t)
		}
		ord.sort(out[first:], start)
	}
	return out
}

// sliceOrder sorts one slice's arrivals in linear expected time. A
// counting pass sizes n equal buckets of the slice, one per arrival, by
// each arrival's offset from the slice's start; the arrivals are placed
// bucket by bucket, which puts the buckets in order, and an insertion sort
// orders each bucket's few. The result is the one ascending order of the
// timestamps, as any sort gives. The buffers grow to the largest slice seen
// and are reused, so ordering allocates nothing in steady state.
type sliceOrder struct {
	counts []int32
	offs   []uint32
}

// sliceBits bounds an offset in a slice: ArrivalSlice < 2^sliceBits ns (the
// constant overflows, and the build fails, if it is not).
const sliceBits = 20

const _ = uint(1<<sliceBits - ArrivalSlice - 1)

// sort orders ts, every one of which lies in [start, start+ArrivalSlice).
func (o *sliceOrder) sort(ts []time.Duration, start time.Duration) {
	n := len(ts)
	if n < 2 {
		return
	}
	if cap(o.counts) < n {
		o.counts, o.offs = make([]int32, n, 2*n), make([]uint32, n, 2*n)
	}
	counts, offs := o.counts[:n], o.offs[:n]
	clear(counts)
	// Offset off's bucket is off·n/2^sliceBits, below n.
	for i, t := range ts {
		offs[i] = uint32(t - start)
		counts[uint64(offs[i])*uint64(n)>>sliceBits]++
	}
	sum := int32(0)
	for b, c := range counts {
		counts[b] = sum // bucket b's first place
		sum += c
	}
	for _, off := range offs {
		b := uint64(off) * uint64(n) >> sliceBits
		ts[counts[b]] = start + time.Duration(off)
		counts[b]++
	}
	for i := 1; i < n; i++ {
		t, j := ts[i], i
		for ; j > 0 && ts[j-1] > t; j-- {
			ts[j] = ts[j-1]
		}
		ts[j] = t
	}
}

// Schedule materialises every arrival timestamp in [from, to), ascending.
// Use Arrivals for long horizons; Schedule is the reference the fuzzer
// checks invariants on.
func (cfg ArrivalConfig) Schedule(from, to time.Duration) []time.Duration {
	var out []time.Duration
	if to <= from {
		return out
	}
	cfg.Curve = resolve(cfg.Curve)
	var buf []time.Duration
	var ord sliceOrder
	for k := int64(from / ArrivalSlice); time.Duration(k)*ArrivalSlice < to; k++ {
		buf = cfg.sliceArrivals(k, buf[:0], &ord)
		for _, t := range buf {
			if t >= from && t < to {
				out = append(out, t)
			}
		}
	}
	return out
}

// Arrivals iterates a stream's schedule lazily, one slice at a time, so a
// multi-second horizon at datacenter rates never materialises millions of
// timestamps at once.
type Arrivals struct {
	cfg      ArrivalConfig
	from, to time.Duration
	k        int64
	buf      []time.Duration
	idx      int
	ord      *sliceOrder
}

// NewArrivals returns an iterator over cfg's arrivals in [from, to).
func NewArrivals(cfg ArrivalConfig, from, to time.Duration) *Arrivals {
	return newArrivals(cfg, from, to, new(sliceOrder))
}

// newArrivals is NewArrivals ordering its slices with ord, which streams
// that take turns on one goroutine may share: each slice is ordered before
// its generation returns.
func newArrivals(cfg ArrivalConfig, from, to time.Duration, ord *sliceOrder) *Arrivals {
	cfg.Curve = resolve(cfg.Curve)
	return &Arrivals{cfg: cfg, from: from, to: to, k: int64(from / ArrivalSlice), ord: ord}
}

// Next returns the next arrival timestamp, or false when the window is
// exhausted.
func (a *Arrivals) Next() (time.Duration, bool) {
	for {
		for a.idx < len(a.buf) {
			t := a.buf[a.idx]
			a.idx++
			if t < a.from {
				continue
			}
			if t >= a.to {
				return 0, false
			}
			return t, true
		}
		if time.Duration(a.k)*ArrivalSlice >= a.to {
			return 0, false
		}
		a.buf = a.cfg.sliceArrivals(a.k, a.buf[:0], a.ord)
		a.idx = 0
		a.k++
	}
}
