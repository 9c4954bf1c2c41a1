package loadgen

import (
	"slices"
	"testing"
	"time"

	"fluidmem/internal/clock"
)

// drawSlice is slice k's Poisson arrivals in the order they are drawn:
// sliceArrivals' draws with nothing ordered.
func drawSlice(cfg ArrivalConfig, k int64) []time.Duration {
	start := time.Duration(k) * ArrivalSlice
	end := start + ArrivalSlice
	cumStart, cumEnd := cfg.Curve.CumOps(start), cfg.Curve.CumOps(end)
	r := clock.NewRand(sliceSeed(cfg.Seed, k))
	lambda := cumEnd - cumStart
	n := poissonCount(r, lambda)
	if n == 0 {
		return nil
	}
	inv := newCumInverse(cfg.Curve, start, end, cumStart, cumEnd)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = min(inv.invert(cumStart+r.Float64()*lambda), end-1)
	}
	return out
}

// TestSliceOrderMatchesSort: sliceArrivals gives the arrivals slices.Sort
// gives for the same draws, slice by slice, on the diurnal day tenant, the
// flash crowd's front page at ×8 (about 1 300 arrivals a slice in the
// spike) and a constant rate, with one sliceOrder reused across all of
// them as Arrivals reuses its own.
func TestSliceOrderMatchesSort(t *testing.T) {
	flash, err := NamedScenario("flashcrowd")
	if err != nil {
		t.Fatal(err)
	}
	var ord sliceOrder
	var buf []time.Duration
	largest := 0
	for name, curve := range map[string]RateCurve{
		"diurnal":       DiurnalRate{Base: 30_000, Swing: 0.9, Period: 100 * time.Millisecond},
		"flashcrowd_x8": Scale(flash.Tenants[0].Curve, 8),
		"constant":      ConstantRate{PerSec: 40_000},
	} {
		cfg := ArrivalConfig{Process: Poisson, Curve: resolve(curve), Seed: 17}
		for k := int64(0); k < 200; k++ {
			want := drawSlice(cfg, k)
			slices.Sort(want)
			buf = cfg.sliceArrivals(k, buf[:0], &ord)
			if !slices.Equal(buf, want) {
				t.Fatalf("%s slice %d: %d arrivals differ from the sorted draws", name, k, len(buf))
			}
			largest = max(largest, len(buf))
		}
	}
	if largest < 1024 {
		t.Fatalf("largest slice held %d arrivals; the flash crowd at ×8 should pass 1 024", largest)
	}
}

// TestSliceOrderEdges sorts hand-made slices: one arrival, two, all equal,
// all at the slice's start or its last nanosecond, descending, and random
// slices of 1 025 and 5 000 arrivals, each against slices.Sort.
func TestSliceOrderEdges(t *testing.T) {
	const start = 7 * ArrivalSlice
	const last = start + ArrivalSlice - 1
	r := clock.NewRand(3)
	random := func(n int) []time.Duration {
		ts := make([]time.Duration, n)
		for i := range ts {
			ts[i] = start + time.Duration(r.Intn(int(ArrivalSlice)))
		}
		return ts
	}
	same := func(t time.Duration) []time.Duration {
		ts := make([]time.Duration, 600)
		for i := range ts {
			ts[i] = t
		}
		return ts
	}
	descending := make([]time.Duration, 300)
	for i := range descending {
		descending[i] = last - time.Duration(i)*3_000
	}
	var ord sliceOrder
	for name, ts := range map[string][]time.Duration{
		"one":         {start + 5},
		"two":         {last, start},
		"all equal":   same(start + 499_999),
		"all start":   same(start),
		"all last":    same(last),
		"ends":        {last, start, last, start, start + 1, last - 1},
		"descending":  descending,
		"random 1025": random(1025),
		"random 5000": random(5000),
	} {
		want := slices.Clone(ts)
		slices.Sort(want)
		ord.sort(ts, start)
		if !slices.Equal(ts, want) {
			t.Fatalf("%s: %v, want %v", name, ts, want)
		}
	}
}

// TestSliceOrderAllocFree: once its buffers have grown to a slice's size,
// ordering a slice of that size or smaller allocates nothing.
func TestSliceOrderAllocFree(t *testing.T) {
	const start = 3 * ArrivalSlice
	r := clock.NewRand(5)
	ts := make([]time.Duration, 1300)
	fill := func() {
		for i := range ts {
			ts[i] = start + time.Duration(r.Intn(int(ArrivalSlice)))
		}
	}
	var ord sliceOrder
	fill()
	ord.sort(ts, start)
	if allocs := testing.AllocsPerRun(20, func() {
		fill()
		ord.sort(ts[:1300-r.Intn(1000)], start)
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per slice, want 0", allocs)
	}
}
