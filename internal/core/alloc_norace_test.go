//go:build !race

package core

// The allocation counts of the harness in alloc_test.go. Not under -race: the
// detector's instrumentation allocates on paths that are allocation-free in a
// normal build.

import (
	"fmt"
	"testing"
	"time"

	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/trace"
)

// TestSteadyStateFaultsAllocFree pins the headline property: zero heap
// allocations per fault in steady state, even though every fault in this
// workload is a store miss with a dirty eviction behind it — untraced, and
// under a histogram-only tracer — and in the clean-drop and re-put variants,
// whose faults mostly share a store buffer and drop it clean or hand it back.
func TestSteadyStateFaultsAllocFree(t *testing.T) {
	for name, mk := range allocBenchBackends(t) {
		for _, workers := range []int{1, 4} {
			for _, variant := range []string{"", "/traced", "/clean_drop", "/reput"} {
				t.Run(fmt.Sprintf("%s/workers=%d%s", name, workers, variant), func(t *testing.T) {
					var tr *trace.Tracer
					if variant == "/traced" {
						tr = trace.New(false)
					}
					_, touch := allocHarness(t, mk(), tr, workers, 128, variant)
					if avg := testing.AllocsPerRun(500, touch); avg != 0 {
						t.Fatalf("steady-state fault allocates: %.2f allocs/fault, want 0", avg)
					}
				})
			}
		}
	}
}

// TestFirstTouchAllocsBounded pins the cold path: a first touch of a fresh
// page may allocate (record-slab and pool growth, store insert) but the
// per-fault cost must stay small and flat — it must not scale with how many
// faults the monitor has already served.
func TestFirstTouchAllocsBounded(t *testing.T) {
	store := dram.New(dram.DefaultParams(), 9)
	cfg := DefaultConfig(store, 64)
	m, err := NewMonitor(cfg, nil, "hyp-alloc-cold")
	if err != nil {
		t.Fatal(err)
	}
	const pages = 1 << 16
	if _, err := m.RegisterRange(testBase, uint64(pages)*PageSize, 4242); err != nil {
		t.Fatal(err)
	}
	var now time.Duration
	i := 0
	// Burn in past the early map-growth doublings so the measured window
	// reflects the flat per-fault cost, not amortised table rebuilds.
	for ; i < 4096; i++ {
		if _, done, err := m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		} else {
			now = done
		}
	}
	avg := testing.AllocsPerRun(2000, func() {
		_, done, err := m.Touch(now, addr(i), true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		i++
	})
	// With all per-page state in the region tables the cold path measures
	// 0.00 allocs/fault on a 64 Ki-page region; the bound of 2
	// leaves room only for rare amortised growth (store-side table doubling),
	// not for any per-fault allocation sneaking back in.
	if avg > 2 {
		t.Fatalf("first-touch fault allocates %.2f/fault, want <= 2", avg)
	}
}
