package main

import (
	"fmt"
	"math/bits"
)

// hist is a log-linear histogram of non-negative integers (nanoseconds
// here). Values below 2^histSubBits are counted exactly; above that each
// power-of-two octave is split into 2^histSubBits equal buckets, so a value
// is known to within 2^-histSubBits (0.4 %) of itself. Sum, count, min and
// max are exact, and histograms merge by addition.
//
// The benchmark keeps its own histogram because internal/stats.Histogram has
// one bucket per octave: a percentile read from it can sit anywhere in a 2×
// range, far coarser than the 1 % bounds BENCHMARK.json puts on tail latency.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
	min    uint64
	max    uint64
}

const (
	histSubBits = 8
	histSub     = 1 << histSubBits
	// Octaves histSubBits..63 each take histSub buckets, after the exact range.
	histBuckets = (64 - histSubBits + 1) * histSub
	// minBeyond is how many samples must lie above a percentile before it is
	// reported: fewer and the value is a handful of outliers, not a tail.
	minBeyond = 10
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 1 - histSubBits
	return (shift+1)<<histSubBits + int(v>>uint(shift)) - histSub
}

// histBounds returns the inclusive value range [lo, hi] of bucket i.
func histBounds(i int) (lo, hi uint64) {
	if i < histSub {
		return uint64(i), uint64(i)
	}
	shift := uint(i>>histSubBits) - 1
	lo = uint64(i&(histSub-1)+histSub) << shift
	return lo, lo + 1<<shift - 1
}

func (h *hist) add(v int64) {
	u := uint64(0)
	if v > 0 {
		u = uint64(v)
	}
	h.counts[histIndex(u)]++
	if h.n == 0 || u < h.min {
		h.min = u
	}
	if u > h.max {
		h.max = u
	}
	h.n++
	h.sum += u
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the value of the sample of rank ceil(q·n), to within the
// bucket width, and the number of samples strictly beyond that rank. It
// refuses — returns an error — when fewer than minBeyond samples lie beyond.
func (h *hist) quantile(q float64) (value float64, beyond uint64, err error) {
	if h.n == 0 {
		return 0, 0, fmt.Errorf("quantile %g of an empty histogram", q)
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	beyond = h.n - rank
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("quantile %g of %d samples leaves %d beyond it, need %d", q, h.n, beyond, minBeyond)
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := histBounds(i)
			if lo < h.min {
				lo = h.min
			}
			if hi > h.max {
				hi = h.max
			}
			// Samples are taken as evenly spread over the bucket.
			frac := (float64(rank-cum) - 0.5) / float64(c)
			return float64(lo) + frac*float64(hi-lo), beyond, nil
		}
		cum += c
	}
	return float64(h.max), beyond, nil
}

// quantileName pairs a quantile with the metric it is reported as.
type quantileName struct {
	name string
	q    float64
}

// putQuantiles reports quantiles of h, divided by div, under their names.
func putQuantiles(dst map[string]float64, h *hist, div float64, qs ...quantileName) error {
	for _, q := range qs {
		v, _, err := h.quantile(q.q)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		dst[q.name] = v / div
	}
	return nil
}
