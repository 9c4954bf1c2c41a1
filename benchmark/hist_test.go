package main

import (
	"math"
	"sort"
	"testing"
)

// oracleQuantile is the definition quantile approximates: the sample of rank
// ceil(q·n) in sorted order.
func oracleQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func TestHistAgainstSortedSamples(t *testing.T) {
	rng := splitmix(42)
	shapes := map[string]func() int64{
		"small exact":  func() int64 { return int64(rng.next() % 200) },
		"microseconds": func() int64 { return 20_000 + int64(rng.next()%30_000) },
		"heavy tail": func() int64 {
			v := int64(rng.next() % 50_000)
			if rng.next()%100 == 0 {
				v += int64(rng.next() % 400_000_000)
			}
			return v
		},
	}
	for name, draw := range shapes {
		h := &hist{}
		var samples []int64
		var sum uint64
		for i := 0; i < 200_000; i++ {
			v := draw()
			h.add(v)
			samples = append(samples, v)
			sum += uint64(v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		if h.n != uint64(len(samples)) || h.sum != sum || h.max != uint64(samples[len(samples)-1]) || h.min != uint64(samples[0]) {
			t.Errorf("%s: count/sum/min/max %d/%d/%d/%d, want %d/%d/%d/%d", name, h.n, h.sum, h.min, h.max,
				len(samples), sum, samples[0], samples[len(samples)-1])
		}
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 0.9999} {
			got, beyond, err := h.quantile(q)
			if err != nil {
				t.Errorf("%s: quantile %g: %v", name, q, err)
				continue
			}
			want := float64(oracleQuantile(samples, q))
			if tol := want/histSub + 0.5; math.Abs(got-want) > tol {
				t.Errorf("%s: quantile %g = %.1f, oracle %.0f, off by more than %.1f", name, q, got, want, tol)
			}
			if wantBeyond := uint64(len(samples)) - uint64(math.Ceil(q*float64(len(samples)))); beyond != wantBeyond {
				t.Errorf("%s: quantile %g reports %d samples beyond, want %d", name, q, beyond, wantBeyond)
			}
		}
	}
}

func TestHistRefusesUnsupportedTail(t *testing.T) {
	h := &hist{}
	for i := int64(1); i <= 1000; i++ {
		h.add(i)
	}
	if _, _, err := h.quantile(0.99); err != nil {
		t.Errorf("p99 of 1000 samples has 10 beyond it and must be reported: %v", err)
	}
	if _, beyond, err := h.quantile(0.999); err == nil {
		t.Errorf("p99.9 of 1000 samples has %d beyond it and must be refused", beyond)
	}
	if _, _, err := (&hist{}).quantile(0.5); err == nil {
		t.Error("a quantile of an empty histogram must be refused")
	}
}

func TestHistMerge(t *testing.T) {
	rng := splitmix(7)
	a, b, both := &hist{}, &hist{}, &hist{}
	for i := 0; i < 50_000; i++ {
		v := int64(rng.next() % 10_000_000)
		both.add(v)
		if i%3 == 0 {
			a.add(v)
		} else {
			b.add(v)
		}
	}
	a.merge(b)
	if *a != *both {
		t.Error("merging two histograms differs from adding every sample to one")
	}
	a.merge(&hist{})
	if *a != *both {
		t.Error("merging an empty histogram changed the result")
	}
}

func TestHistBucketsTile(t *testing.T) {
	// Every bucket's range starts where the previous one ended, and a value
	// lands in the bucket whose range holds it.
	next := uint64(0)
	for i := 0; i < histBuckets; i++ {
		lo, hi := histBounds(i)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, next-1)
		}
		if histIndex(lo) != i || histIndex(hi) != i {
			t.Fatalf("bucket %d [%d,%d]: bounds index to %d and %d", i, lo, hi, histIndex(lo), histIndex(hi))
		}
		if i > histSub && float64(hi-lo+1) > float64(lo)/histSub {
			t.Fatalf("bucket %d [%d,%d] is wider than 1/%d of its value", i, lo, hi, histSub)
		}
		next = hi + 1
	}
	if next != 0 { // the last bucket ends at MaxUint64
		t.Fatalf("buckets end at %d, not at the top of uint64", next-1)
	}
}
