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
// the most allocation-prone path the data plane has. The clean-drop variant
// turns CleanPageDrop on and writes one access in eight, so most faults
// install a shared store buffer write-protected and drop it clean, and the
// rest take the WP fault's private copy and a dirty eviction. The re-put
// variant writes one access in eight without clean drop, so most evictions
// hand the store its own read buffer back (or a copy, where the store does
// not take it back). In the dirty and clean-drop streams a write fault takes
// the store's read buffer instead of copying it, where the store declares
// kvstore.Reput. The synchronous variant is the dirty stream written
// through (AsyncWrite off), where nothing is taken.

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
// exactly one fault per call: a dirty one, or the read-mostly stream of the
// "/clean_drop" or the "/reput" variant; "/sync" is the dirty stream with
// synchronous write-back.
func allocHarness(tb testing.TB, store kvstore.Store, tr *trace.Tracer, workers, pages int, variant string) (*Monitor, func()) {
	tb.Helper()
	cfg := DefaultConfig(store, pages/2)
	cfg.Workers = workers
	cfg.Trace = tr
	cfg.CleanPageDrop = variant == "/clean_drop"
	cfg.AsyncWrite = variant != "/sync"
	readMostly := cfg.CleanPageDrop || variant == "/reput"
	m, err := NewMonitor(cfg, nil, "hyp-alloc")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := m.RegisterRange(testBase, uint64(pages)*PageSize, 4242); err != nil {
		tb.Fatal(err)
	}
	var now time.Duration
	i := 0
	touch := func() {
		_, done, err := m.Touch(now, addr(i%pages), !readMostly || i%8 == 0)
		if err != nil {
			tb.Fatal(err)
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
// aliasing net in storetest is what catches that.) The sum is over distinct
// buffers: a page installed from a store read maps the store's buffer itself,
// and an unwritten one goes back on the write list as that same buffer, so
// the store counts it and neither the descriptor nor the write list does;
// the first write moves the page to a pooled frame. A write fault that takes
// the store's buffer moves it from the store (whose taken key holds none,
// Buffers) to the descriptor's frames, and its flush back. The synchronous
// variant pins why nothing is taken there: its Put copies, so a taken buffer
// would go to the pool and the store would allocate one per write.
func TestSteadyStateConservesBuffers(t *testing.T) {
	type backend struct {
		store   kvstore.Store
		inStore func() int // buffers the store holds, live and spare
	}
	newDRAM := func() backend {
		s := dram.New(dram.DefaultParams(), 9)
		return backend{s, s.Buffers}
	}
	newRAMCloud := func() backend {
		s := ramcloud.New(ramcloud.DefaultParams(), 10)
		return backend{s, s.Buffers}
	}
	for name, tc := range map[string]struct {
		mk      func() backend
		variant string
	}{
		"dram":                {newDRAM, ""},
		"ramcloud":            {newRAMCloud, ""},
		"dram/clean_drop":     {newDRAM, "/clean_drop"},
		"ramcloud/clean_drop": {newRAMCloud, "/clean_drop"},
		"dram/reput":          {newDRAM, "/reput"},
		"ramcloud/reput":      {newRAMCloud, "/reput"},
		"dram/sync":           {newDRAM, "/sync"},
		"ramcloud/sync":       {newRAMCloud, "/sync"},
	} {
		t.Run(name, func(t *testing.T) {
			be := tc.mk()
			m, touch := allocHarness(t, be.store, nil, 1, 128, tc.variant)
			total := func() int {
				mapped, pooled := m.fd.FrameCounts()
				return mapped + pooled + m.wb.queuedOwned() + be.inStore()
			}
			want := total()
			copies := m.PageCopies()
			for i := 0; i < 10000; i++ {
				touch()
				if got := total(); got != want {
					mapped, pooled := m.fd.FrameCounts()
					t.Fatalf("fault %d: %d page buffers, %d before (mapped %d, pooled %d, queued owned %d, in store %d)",
						i, got, want, mapped, pooled, m.wb.queuedOwned(), be.inStore())
				}
			}
			st := m.Stats()
			switch tc.variant {
			case "/clean_drop":
				if st.CleanDropped == 0 || m.WPFaults() == 0 {
					t.Fatalf("clean-drop stream dropped %d pages clean after %d WP faults; want both > 0", st.CleanDropped, m.WPFaults())
				}
			case "/reput":
				// About one fault in eight writes its page, and that fault
				// takes the store's buffer; the unwritten rest go back as the
				// store's own. Nothing is copied.
				if got := m.PageCopies() - copies; got != 0 {
					t.Fatalf("re-put stream made %d page copies over %d faults; want none", got, st.Faults)
				}
			}
		})
	}
}

// queuedOwned counts the queued records whose buffer the engine owns: a
// record not owned holds the store's own buffer, which the store counts.
func (w *writeback) queuedOwned() int {
	n := 0
	for i := w.queue.Head; i != 0; i = w.pages.queueLinks[i].Next {
		if !w.pages.recs[i].shared {
			n++
		}
	}
	return n
}
