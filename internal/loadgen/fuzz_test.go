package loadgen

import (
	"math"
	"testing"
	"time"
)

// FuzzArrivalSchedule pins the arrival-schedule invariants over fuzzed
// (process, curve, seed, split, period) tuples:
//
//  1. every arrival lies in [0, horizon) and timestamps are monotone
//     non-decreasing;
//  2. the schedule is bitwise repeatable — generating it twice yields the
//     same timestamps;
//  3. schedule splitting/merging is invariant: [0, split) ++ [split, horizon)
//     equals [0, horizon) element-for-element, for an arbitrary fuzzed split;
//  4. the schedule equals the reference-bisection schedule: guess-and-verify
//     inversion moves no timestamp (referenceSlice, invcum_test.go).
//
// These are the properties the open-loop engine builds its cross-worker
// determinism on, so they are fuzzed rather than merely example-tested.
func FuzzArrivalSchedule(f *testing.F) {
	const horizon = 8 * time.Millisecond
	f.Add(uint8(0), uint8(0), 40_000.0, 0.9, uint64(1), int64(5_000_000), int64(3_000_000))
	f.Add(uint8(0), uint8(1), 30_000.0, 0.5, uint64(7), int64(4_111_333), int64(3_000_000))
	f.Add(uint8(1), uint8(2), 20_000.0, 8.0, uint64(42), int64(1), int64(2_000_000))
	f.Add(uint8(1), uint8(0), 100_000.0, 0.0, uint64(3), int64(7_999_999), int64(3_000_000))
	f.Add(uint8(0), uint8(2), 0.0, 2.0, uint64(9), int64(2_000_000), int64(2_000_000))
	// Short Period: many full swings (Swing 1, so many zero-rate troughs)
	// inside every slice, where a chord is a poor guess.
	f.Add(uint8(0), uint8(1), 150_000.0, 1.0, uint64(5), int64(3_000_001), int64(70_000))
	f.Add(uint8(1), uint8(1), 90_000.0, 1.0, uint64(6), int64(999_999), int64(1_000))
	// Zero Base: no arrivals at all, whatever the shape.
	f.Add(uint8(1), uint8(1), 0.0, 0.7, uint64(11), int64(4_000_000), int64(3_000_000))
	// Spike edge: the burst ends one nanosecond short of a slice boundary,
	// and the split falls on that edge.
	f.Add(uint8(1), uint8(2), 125_000.0, 7.0, uint64(21), int64(3_999_999), int64(1_999_999))
	f.Add(uint8(0), uint8(2), 180_000.0, 7.5, uint64(22), int64(2_000_000), int64(1))
	f.Fuzz(func(t *testing.T, proc, curveKind uint8, rate, shape float64, seed uint64, splitNs, periodNs int64) {
		if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
			rate = 1000
		}
		if rate > 200_000 {
			rate = math.Mod(rate, 200_000)
		}
		if math.IsNaN(shape) || math.IsInf(shape, 0) || shape < 0 {
			shape = 0.5
		}
		// period is the diurnal Period and the flash crowd's Width, from
		// 1 ns to the horizon.
		period := time.Duration(periodNs)
		if period < 0 {
			period = -period
		}
		period = 1 + period%horizon
		var curve RateCurve
		switch curveKind % 3 {
		case 0:
			curve = ConstantRate{PerSec: rate}
		case 1:
			swing := shape // full swing allowed: the rate touches zero
			if swing > 1 {
				swing = math.Mod(shape, 1)
			}
			curve = DiurnalRate{Base: rate, Swing: swing, Period: period}
		default:
			curve = FlashCrowdRate{Base: rate, Spike: 1 + math.Mod(shape, 8),
				Start: horizon / 4, Width: period}
		}
		cfg := ArrivalConfig{Process: Process(proc % 2), Curve: curve, Seed: seed}

		split := time.Duration(splitNs)
		if split < 0 {
			split = -split
		}
		split %= horizon

		whole := cfg.Schedule(0, horizon)
		prev := time.Duration(0)
		for i, at := range whole {
			if at < 0 || at >= horizon {
				t.Fatalf("arrival %d at %v outside [0, %v)", i, at, horizon)
			}
			if at < prev {
				t.Fatalf("arrival %d at %v before predecessor %v", i, at, prev)
			}
			prev = at
		}

		again := cfg.Schedule(0, horizon)
		if len(again) != len(whole) {
			t.Fatalf("repeat generated %d arrivals, first run %d", len(again), len(whole))
		}
		for i := range whole {
			if whole[i] != again[i] {
				t.Fatalf("repeat arrival %d is %v, first run %v", i, again[i], whole[i])
			}
		}

		if err := equalSchedules(whole, referenceSchedule(cfg, 0, horizon)); err != nil {
			t.Fatalf("guess-and-verify moved the schedule: %v", err)
		}

		merged := append(cfg.Schedule(0, split), cfg.Schedule(split, horizon)...)
		if len(merged) != len(whole) {
			t.Fatalf("split at %v: merged %d arrivals, whole %d", split, len(merged), len(whole))
		}
		for i := range whole {
			if merged[i] != whole[i] {
				t.Fatalf("split at %v: merged arrival %d is %v, whole %v", split, i, merged[i], whole[i])
			}
		}
	})
}
