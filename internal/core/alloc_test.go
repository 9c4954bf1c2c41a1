package core

// Allocation regression harness for the Clio-style data-plane split: once a
// monitor reaches steady state, the per-fault hot path (fault decode, worker
// dispatch, LRU touch, store read, write-list append, flush) must not
// allocate at all. Every buffer and record it needs comes from the arenas,
// pools and region tables warmed during the first cycles over the working
// set. Cold paths (first touch of a fresh page, pool growth) may allocate,
// but only a bounded amount per fault — never proportionally to faults
// served. The two tests that count allocations are in alloc_norace_test.go
// (the race detector allocates); the helpers here also serve
// TestSteadyStateConservesBuffers and BenchmarkSteadyStateFault.
//
// The working set is sized at 2x the LRU capacity and scanned cyclically:
// in steady state every single touch is a store miss that evicts a dirty
// page, enqueues a write-back, and periodically flushes a MultiPut batch —
// the most allocation-prone path the data plane has.

import (
	"testing"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/cluster"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/kvstore/replicated"
	"fluidmem/internal/trace"
)

// allocBenchBackends enumerates the store backends the harness pins. Each
// constructor returns a fresh store so monitors never share state.
func allocBenchBackends(tb testing.TB) map[string]func() kvstore.Store {
	tb.Helper()
	return map[string]func() kvstore.Store{
		"dram": func() kvstore.Store {
			return dram.New(dram.DefaultParams(), 9)
		},
		"ramcloud": func() kvstore.Store {
			return ramcloud.New(ramcloud.DefaultParams(), 10)
		},
		"replicated": func() kvstore.Store {
			st, err := replicated.New(
				dram.New(dram.DefaultParams(), 11),
				dram.New(dram.DefaultParams(), 12),
				dram.New(dram.DefaultParams(), 13),
			)
			if err != nil {
				tb.Fatal(err)
			}
			return st
		},
		"cluster": func() kvstore.Store {
			pool, err := cluster.New(cluster.Config{Nodes: 4, Replicas: 2, Seed: 7})
			if err != nil {
				tb.Fatal(err)
			}
			return pool
		},
	}
}

// allocHarness builds a monitor over the given store, traced by tr (nil:
// untraced), warms it to steady state, and returns it with a closure running
// exactly one dirty fault per call.
func allocHarness(t *testing.T, store kvstore.Store, tr *trace.Tracer, workers, pages int) (*Monitor, func()) {
	t.Helper()
	cfg := DefaultConfig(store, pages/2)
	cfg.Workers = workers
	cfg.Trace = tr
	m, err := NewMonitor(cfg, nil, "hyp-alloc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterRange(testBase, uint64(pages)*PageSize, 4242); err != nil {
		t.Fatal(err)
	}
	var now time.Duration
	i := 0
	touch := func() {
		_, done, err := m.Touch(now, addr(i%pages), true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		i++
	}
	// Warm-up: three full scans of the working set. The first seeds every
	// page (first touch), the rest cycle pages through evict/flush/read so
	// every pool, arena, and map reaches its steady-state size.
	for k := 0; k < 3*pages; k++ {
		touch()
	}
	return m, touch
}

// TestSteadyStateConservesBuffers pins the other half of allocation-free: the
// page buffers only change hands. A frame is mapped in the VM, pooled in the
// descriptor, queued on the write list, held by the store under a key, or
// spare inside the store; an eviction moves one from mapped to queued, a flush
// trades the queued ones for the versions the store replaces, an install
// takes one from the pool. Over 10 000 steady-state faults the total must not
// move: a buffer dropped on the way shows as a shrinking sum here and as an
// allocation later. (A buffer owned twice does not change the count; the
// aliasing net in storetest is what catches that.)
func TestSteadyStateConservesBuffers(t *testing.T) {
	dramStore := dram.New(dram.DefaultParams(), 9)
	ramcloudStore := ramcloud.New(ramcloud.DefaultParams(), 10)
	for name, tc := range map[string]struct {
		store   kvstore.Store
		inStore func() int // buffers the store holds, live and spare
	}{
		"dram": {dramStore, dramStore.Len},
		"ramcloud": {ramcloudStore, func() int {
			return int(ramcloudStore.Stats().BytesStored/kvstore.PageSize) + ramcloudStore.FreeBuffers()
		}},
	} {
		t.Run(name, func(t *testing.T) {
			m, touch := allocHarness(t, tc.store, nil, 1, 128)
			total := func() int {
				mapped, pooled := m.fd.FrameCounts()
				return mapped + pooled + m.wb.QueuedLen() + tc.inStore()
			}
			want := total()
			for i := 0; i < 10000; i++ {
				touch()
				if got := total(); got != want {
					mapped, pooled := m.fd.FrameCounts()
					t.Fatalf("fault %d: %d page buffers, %d before (mapped %d, pooled %d, queued %d, in store %d)",
						i, got, want, mapped, pooled, m.wb.QueuedLen(), tc.inStore())
				}
			}
		})
	}
}
