package core

import (
	"testing"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/trace"
)

// The monitor's own fault histogram is the tracer's merged FAULT histogram
// without the tracer: bucket for bucket, at one worker and at four, over
// every resolution path. Host SLO windows read it, so it must not depend on
// whether tracing is on.
func TestFaultHistogramMatchesTracer(t *testing.T) {
	configs := map[string]func() Config{
		"compress": func() Config {
			cfg := DefaultConfig(ramcloud.New(ramcloud.DefaultParams(), 3), 24)
			p := DefaultCompressParams(16 * PageSize)
			cfg.Compress = &p
			return cfg
		},
		"zero-elide": func() Config {
			cfg := DefaultConfig(ramcloud.New(ramcloud.DefaultParams(), 3), 24)
			cfg.ElideZeroPages = true
			return cfg
		},
		"prefetch": func() Config {
			cfg := DefaultConfig(ramcloud.New(ramcloud.DefaultParams(), 3), 24)
			cfg.PrefetchPages = 4
			return cfg
		},
	}
	paths := []string{pathFirstTouch, pathZeroRefill, pathTier, pathSteal, pathRead, pathBatchedRead}
	for _, workers := range []int{1, 4} {
		seen := map[string]uint64{}
		for name, mk := range configs {
			cfg := mk()
			cfg.Workers = workers
			tr := trace.New(false)
			cfg.Trace = tr
			m := newMonitor(t, cfg, 96)
			driveFaultPaths(t, m, 3000, 96)
			got, want := m.FaultHistogram(), tr.PhaseHistogram(trace.EvFault)
			if got != want {
				t.Errorf("workers=%d %s: monitor histogram (%d faults) differs from the tracer's FAULT histogram (%d)",
					workers, name, got.Count(), want.Count())
			}
			if got.Count() == 0 {
				t.Errorf("workers=%d %s: no fault recorded", workers, name)
			}
			for _, p := range paths {
				h := tr.PhaseHistogram(p)
				seen[p] += h.Count()
			}
		}
		for _, p := range paths {
			if seen[p] == 0 {
				t.Errorf("workers=%d: no fault resolved by %s", workers, p)
			}
		}
	}
}

// driveFaultPaths runs a random read/write mix with a sequential scan riding
// along over pages pages; half the writes return their page to all zeroes.
func driveFaultPaths(t *testing.T, m *Monitor, steps, pages int) {
	t.Helper()
	rng := clock.NewRand(0xfa17)
	now, scan := time.Duration(0), 0
	for i := 0; i < steps; i++ {
		page := rng.Intn(pages)
		if rng.Float64() < 0.3 {
			page = scan % pages
			scan++
		}
		write := rng.Intn(3) == 0
		data, done, err := m.Touch(now, addr(page), write)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if write {
			data[0] = byte(i%2) * byte(i%250+1)
		}
		now = done + time.Microsecond
	}
}
