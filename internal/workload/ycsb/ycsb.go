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
type Zipfian struct {
	n     int
	alpha float64
	zetan float64
	eta   float64
	rank1 float64 // 1+0.5^θ: draws with 1 <= u*zetan < rank1 are rank 1
	rng   *clock.Rand
}

// NewZipfian builds a generator over n items with skew theta in (0, 1).
func NewZipfian(n int, theta float64, seed uint64) (*Zipfian, error) {
	if n < 1 {
		return nil, fmt.Errorf("ycsb: zipfian over %d items", n)
	}
	if theta <= 0 || theta >= 1 {
		return nil, fmt.Errorf("ycsb: zipfian theta %v out of (0,1)", theta)
	}
	z := &Zipfian{n: n, rng: clock.NewRand(seed)}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	z.rank1 = 1 + math.Pow(0.5, theta)
	return z, nil
}

// Next returns the next key.
func (z *Zipfian) Next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	var rank int
	switch {
	case uz < 1:
		rank = 0
	case uz < z.rank1:
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.n {
		rank = z.n - 1
	}
	// Scramble: spread popular ranks over the keyspace (fnv-style).
	return int(scramble(uint64(rank)) % uint64(z.n))
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
