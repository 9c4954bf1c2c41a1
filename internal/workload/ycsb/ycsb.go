// Package ycsb implements the Yahoo Cloud Serving Benchmark driver used in
// the paper's MongoDB evaluation (§VI-D2): workload C (100% reads) with a
// zipfian key distribution, recording a latency time series like Figure 5's.
package ycsb

import (
	"fmt"
	"math"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/stats"
)

// RecordStore is the system under test (the MongoDB-like document store).
type RecordStore interface {
	// ReadRecord fetches one record by id, returning the completion time.
	ReadRecord(now time.Duration, id int) (time.Duration, error)
}

// Config parametrises a workload C run.
type Config struct {
	// Records is the keyspace size.
	Records int
	// Operations is the number of reads to issue.
	Operations int
	// ZipfTheta is the skew (YCSB default 0.99).
	ZipfTheta float64
	// ThinkTime is client-side cost between operations.
	ThinkTime time.Duration
	// Seed drives key selection.
	Seed uint64
}

// DefaultConfig mirrors YCSB workload C over n records.
func DefaultConfig(records, operations int) Config {
	return Config{
		Records:    records,
		Operations: operations,
		ZipfTheta:  0.99,
		ThinkTime:  2 * time.Microsecond,
		Seed:       1,
	}
}

// Result summarises a run.
type Result struct {
	// Series is the (virtual time, latency) course of every read —
	// Figure 5's plot data.
	Series *stats.TimeSeries
	// Latencies is the latency distribution.
	Latencies *stats.Sample
	// Operations is the number of reads completed.
	Operations int
}

// Run executes workload C against the store.
func Run(now time.Duration, store RecordStore, cfg Config) (*Result, time.Duration, error) {
	if cfg.Records < 1 || cfg.Operations < 1 {
		return nil, now, fmt.Errorf("ycsb: records=%d operations=%d", cfg.Records, cfg.Operations)
	}
	zipf, err := NewZipfian(cfg.Records, cfg.ZipfTheta, cfg.Seed)
	if err != nil {
		return nil, now, err
	}
	res := &Result{
		Series:    &stats.TimeSeries{},
		Latencies: stats.NewSample(cfg.Operations),
	}
	for i := 0; i < cfg.Operations; i++ {
		id := zipf.Next()
		start := now
		done, err := store.ReadRecord(now, id)
		if err != nil {
			return nil, done, fmt.Errorf("ycsb: read record %d: %w", id, err)
		}
		now = done + cfg.ThinkTime
		lat := done - start
		res.Series.Add(start, lat)
		res.Latencies.Add(lat)
		res.Operations++
	}
	return res, now, nil
}

// Zipfian generates zipf-distributed keys in [0, n) using the Gray et al.
// algorithm YCSB uses, with scrambling so hot keys are spread across the
// keyspace rather than clustered at 0.
//
// A draw is one 53-bit word w (Float64's: u = w/2⁵³), and the key is a step
// function of w with at most n+2 steps, which NewZipfian tabulates from the
// formula itself (zipfForm.rankOf): Next looks the step up instead of
// evaluating math.Pow, and returns the key the formula gives for w.
type Zipfian struct {
	// starts[i] is the first word of step i, ascending, and starts[len-1]
	// is 2⁵³, past every word; keys[i] is step i's scrambled key.
	starts []uint64
	keys   []uint32
	// guide[w>>shift] is the step holding the first word of w's bucket.
	guide []uint32
	shift uint
	rng   *clock.Rand
}

// maxZipfianItems bounds n so a step index fits the guide's uint32.
const maxZipfianItems = 1 << 31

// NewZipfian builds a generator over n items with skew theta in (0, 1).
func NewZipfian(n int, theta float64, seed uint64) (*Zipfian, error) {
	if n < 1 || n > maxZipfianItems {
		return nil, fmt.Errorf("ycsb: zipfian over %d items", n)
	}
	if theta <= 0 || theta >= 1 {
		return nil, fmt.Errorf("ycsb: zipfian theta %v out of (0,1)", theta)
	}
	f := newZipfForm(n, theta)
	z := &Zipfian{rng: clock.NewRand(seed)}
	f.tabulate(z)
	return z, nil
}

// Reseed returns a generator over z's table drawing its own stream from
// seed, as NewZipfian with that seed would. The two share the table, which
// nothing writes after NewZipfian.
func (z *Zipfian) Reseed(seed uint64) *Zipfian {
	c := *z
	c.rng = clock.NewRand(seed)
	return &c
}

// Next returns the next key.
func (z *Zipfian) Next() int { return z.key(z.rng.Uint64() >> 11) }

// key is the key of word w: its bucket's first step, then forward.
func (z *Zipfian) key(w uint64) int {
	i := z.guide[w>>z.shift]
	for z.starts[i+1] <= w {
		i++
	}
	return int(z.keys[i])
}

// zipfForm is the Gray et al. formula Next evaluated per draw before the
// table, kept to build the table from.
type zipfForm struct {
	n     int
	alpha float64
	zetan float64
	eta   float64
	rank1 float64 // 1+0.5^θ: draws with 1 <= u*zetan < rank1 are rank 1
}

func newZipfForm(n int, theta float64) zipfForm {
	f := zipfForm{n: n}
	f.zetan = zeta(n, theta)
	f.alpha = 1 / (1 - theta)
	f.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/f.zetan)
	f.rank1 = 1 + math.Pow(0.5, theta)
	return f
}

// wordEnd is one past the last 53-bit word.
const wordEnd = 1 << 53

// rankOf is the formula's rank for word w, exactly as a draw of w
// evaluated it: the three cases, then the n-1 clamp. Past the two
// comparisons it depends on w only through base(w).
func (f *zipfForm) rankOf(w uint64) int {
	u := float64(w) / (1 << 53)
	uz := u * f.zetan
	switch {
	case uz < 1:
		return 0
	case uz < f.rank1:
		return min(1, f.n-1)
	}
	return f.power(f.base(w))
}

// base is the power's base for word w, eta*u-eta+1.
func (f *zipfForm) base(w uint64) float64 {
	u := float64(w) / (1 << 53)
	return f.eta*u - f.eta + 1
}

// power is the formula's clamped rank for base x, int(n*x^α).
func (f *zipfForm) power(x float64) int {
	return min(int(float64(f.n)*math.Pow(x, f.alpha)), f.n-1)
}

// tabulate fills z's steps and guide. rankOf is 0, then 1, over the two
// ranges the u*zetan comparisons cut, then power(base(w)): base rises with
// w, and power with its base up to n-1, from wherever rounding puts it at
// b (1 or 2 at YCSB's skews, 0 where α is huge). So the steps are [0, a)
// rank 0, [a, b) rank 1, then one step per rank from rankOf(b) up, which
// starts at the first word whose base reaches the least base whose power
// reaches the rank. Both searches start from the formula's closed-form
// inverse, x = (r/n)^(1/α) and u = 1 + (x − 1)/η.
func (f *zipfForm) tabulate(z *Zipfian) {
	cut := func(lo uint64, edge float64) uint64 { // the first u*zetan >= edge
		return boundary(lo, wordEnd, uint64(edge/f.zetan*(1<<53)), func(w uint64) bool {
			return w == wordEnd || float64(w)/(1<<53)*f.zetan >= edge
		})
	}
	a := cut(0, 1)
	b := cut(a, f.rank1)
	lo, r0 := b, f.n-1
	if b < wordEnd {
		r0 = f.rankOf(b)
	}
	z.starts = make([]uint64, 0, f.n-r0+3)
	z.keys = make([]uint32, 0, f.n-r0+2)
	step := func(start uint64, rank int) {
		z.starts = append(z.starts, start)
		z.keys = append(z.keys, uint32(scramble(uint64(rank))%uint64(f.n)))
	}
	step(0, 0)
	step(a, min(1, f.n-1))
	step(b, r0)
	// Positive floats order as their bits; power(0) is 0 and power(1) n-1,
	// and base(2⁵³) is 1.
	one := math.Float64bits(1)
	for r := r0 + 1; r < f.n; r++ {
		guess := math.Pow(float64(r)/float64(f.n), 1/f.alpha)
		x := math.Float64frombits(boundary(0, one, math.Float64bits(guess), func(v uint64) bool {
			return f.power(math.Float64frombits(v)) >= r
		}))
		if f.base(lo) < x { // else rank r-1's step is empty
			u := 1 + (x-1)/f.eta
			lo = boundary(lo, wordEnd, uint64(max(math.Ceil(u*(1<<53)), 0)), func(w uint64) bool {
				return f.base(w) >= x
			})
		}
		step(lo, r)
	}
	z.starts = append(z.starts, wordEnd)

	// The guide: a power of two of buckets, at least one per step.
	bits := uint(0)
	for 1<<bits < len(z.keys) {
		bits++
	}
	z.shift = 53 - bits
	z.guide = make([]uint32, 1<<bits)
	i := uint32(0)
	for g := range z.guide {
		for z.starts[i+1] <= uint64(g)<<z.shift {
			i++
		}
		z.guide[g] = i
	}
}

// boundary is the first v in (lo, hi] at which reaches holds, given that it
// fails at lo, holds at hi, and holds from some point on: it gallops from
// the guess g until a bracket holds the boundary, then bisects it.
func boundary(lo, hi, g uint64, reaches func(uint64) bool) uint64 {
	g = min(max(g, lo+1), hi)
	if reaches(g) {
		hi = g
		for d := uint64(1); hi-lo > d; d *= 2 {
			if !reaches(hi - d) {
				lo = hi - d
				break
			}
			hi -= d
		}
	} else {
		lo = g
		for d := uint64(1); hi-lo > d; d *= 2 {
			if reaches(lo + d) {
				hi = lo + d
				break
			}
			lo += d
		}
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; reaches(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

func scramble(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}
