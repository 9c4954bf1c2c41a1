// Package stats collects and summarises virtual-time measurements: latency
// histograms, CDFs, percentiles, and the harmonic-mean TEPS aggregation that
// Graph500 reporting requires.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample is an ordered collection of duration observations.
type Sample struct {
	values []time.Duration
	sorted bool
}

// NewSample returns an empty sample with capacity hint n.
func NewSample(n int) *Sample {
	return &Sample{values: make([]time.Duration, 0, n)}
}

// Add records one observation.
func (s *Sample) Add(d time.Duration) {
	s.values = append(s.values, d)
	s.sorted = false
}

// Len reports the number of observations.
func (s *Sample) Len() int { return len(s.values) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() time.Duration {
	if len(s.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.values {
		sum += float64(v)
	}
	return time.Duration(sum / float64(len(s.values)))
}

// Stdev returns the population standard deviation, or 0 for fewer than two
// observations.
func (s *Sample) Stdev() time.Duration {
	if len(s.values) < 2 {
		return 0
	}
	mean := float64(s.Mean())
	var sq float64
	for _, v := range s.values {
		d := float64(v) - mean
		sq += d * d
	}
	return time.Duration(math.Sqrt(sq / float64(len(s.values))))
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() time.Duration {
	s.sort()
	if len(s.values) == 0 {
		return 0
	}
	return s.values[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() time.Duration {
	s.sort()
	if len(s.values) == 0 {
		return 0
	}
	return s.values[len(s.values)-1]
}

// Percentile returns the p-th percentile (p in [0, 100]) using
// nearest-rank interpolation. It returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) time.Duration {
	s.sort()
	n := len(s.values)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.values[0]
	}
	if p >= 100 {
		return s.values[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo]
	}
	frac := rank - float64(lo)
	return s.values[lo] + time.Duration(frac*float64(s.values[hi]-s.values[lo]))
}

// Summary formats mean/stdev/p99 in microseconds, the unit the paper reports.
func (s *Sample) Summary() string {
	return fmt.Sprintf("avg=%.2fµs stdev=%.2fµs p99=%.2fµs n=%d",
		Micros(s.Mean()), Micros(s.Stdev()), Micros(s.Percentile(99)), s.Len())
}

func (s *Sample) sort() {
	if s.sorted {
		return
	}
	sort.Slice(s.values, func(i, j int) bool { return s.values[i] < s.values[j] })
	s.sorted = true
}

// Micros converts a duration to float microseconds.
func Micros(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond)
}

// HarmonicMean returns the harmonic mean of rates (e.g. TEPS over 64 BFS
// roots, as Graph500 specifies). Zero or negative entries are rejected with
// an error since the harmonic mean is undefined for them.
func HarmonicMean(rates []float64) (float64, error) {
	if len(rates) == 0 {
		return 0, fmt.Errorf("stats: harmonic mean of empty slice")
	}
	var invSum float64
	for i, r := range rates {
		if r <= 0 {
			return 0, fmt.Errorf("stats: harmonic mean needs positive rates, got %v at index %d", r, i)
		}
		invSum += 1 / r
	}
	return float64(len(rates)) / invSum, nil
}

// TimePoint is one (virtual time, value) observation in a time series.
type TimePoint struct {
	At    time.Duration
	Value time.Duration
}

// TimeSeries accumulates timestamped latency observations (Figure 5's read
// latency time courses).
type TimeSeries struct {
	points []TimePoint
}

// Add records value at virtual time at.
func (ts *TimeSeries) Add(at, value time.Duration) {
	ts.points = append(ts.points, TimePoint{At: at, Value: value})
}

// Len reports the number of observations.
func (ts *TimeSeries) Len() int { return len(ts.points) }

// Mean returns the arithmetic mean of values, or 0 if empty.
func (ts *TimeSeries) Mean() time.Duration {
	if len(ts.points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range ts.points {
		sum += float64(p.Value)
	}
	return time.Duration(sum / float64(len(ts.points)))
}

// Buckets averages the series into n equal spans of virtual time, returning
// one point per non-empty bucket. This is how the harness downsamples the
// Figure 5 time courses for terminal rendering.
func (ts *TimeSeries) Buckets(n int) []TimePoint {
	if len(ts.points) == 0 || n <= 0 {
		return nil
	}
	start, end := ts.points[0].At, ts.points[0].At
	for _, p := range ts.points {
		if p.At < start {
			start = p.At
		}
		if p.At > end {
			end = p.At
		}
	}
	span := end - start
	if span <= 0 {
		return []TimePoint{{At: start, Value: ts.Mean()}}
	}
	sums := make([]float64, n)
	counts := make([]int, n)
	for _, p := range ts.points {
		idx := int(int64(p.At-start) * int64(n) / int64(span+1))
		if idx >= n {
			idx = n - 1
		}
		sums[idx] += float64(p.Value)
		counts[idx]++
	}
	out := make([]TimePoint, 0, n)
	for i := 0; i < n; i++ {
		if counts[i] == 0 {
			continue
		}
		mid := start + time.Duration((float64(i)+0.5)*float64(span)/float64(n))
		out = append(out, TimePoint{At: mid, Value: time.Duration(sums[i] / float64(counts[i]))})
	}
	return out
}

// RenderCDFASCII renders a compact CDF sparkline table for terminal output.
func RenderCDFASCII(name string, s *Sample, width int) string {
	if s.Len() == 0 {
		return fmt.Sprintf("%s: (no samples)", name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  %s\n", name, s.Summary())
	marks := []float64{10, 25, 50, 75, 90, 99, 99.9}
	for _, p := range marks {
		v := s.Percentile(p)
		bar := int(p / 100 * float64(width))
		fmt.Fprintf(&b, "  p%-5.1f %9.2fµs |%s\n", p, Micros(v), strings.Repeat("#", bar))
	}
	return b.String()
}
