package core

import (
	"errors"
	"testing"
	"time"

	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/faulty"
)

// prefetchMonitor builds a RAMCloud monitor with prefetching enabled.
func prefetchMonitor(t *testing.T, lruPages, prefetch int) *Monitor {
	t.Helper()
	cfg := ramcloudCfg(lruPages)
	cfg.PrefetchPages = prefetch
	cfg.WriteBatchSize = 1 // flush promptly so prefetches read the store
	m, err := NewMonitor(cfg, nil, "hyp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterRange(testBase, 256*PageSize, 4242); err != nil {
		t.Fatal(err)
	}
	return m
}

// populate writes tag bytes into n pages and drains writeback.
func populate(t *testing.T, m *Monitor, n int) time.Duration {
	t.Helper()
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		data, done, err := m.Touch(now, addr(i), true)
		if err != nil {
			t.Fatal(err)
		}
		now = done
		data[0] = byte(i + 1)
	}
	done, err := m.Drain(now)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

func TestPrefetchPullsFollowingPages(t *testing.T) {
	m := prefetchMonitor(t, 16, 4)
	now := populate(t, m, 64)
	// Fault page 32: pages 33..36 should be prefetched behind it.
	if _, _, err := m.Touch(now, addr(32), false); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
	for i := 33; i <= 36; i++ {
		if !m.lru.Contains(addr(i)) {
			t.Fatalf("page %d not prefetched", i)
		}
	}
}

func TestPrefetchedPagesHaveCorrectContents(t *testing.T) {
	m := prefetchMonitor(t, 16, 4)
	now := populate(t, m, 64)
	_, now, err := m.Touch(now, addr(40), false)
	if err != nil {
		t.Fatal(err)
	}
	// Reading a prefetched page must be a resident hit with the right data.
	faultsBefore := m.Stats().Faults
	data, _, err := m.Touch(now, addr(41), false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().Faults != faultsBefore {
		t.Fatal("prefetched page still faulted")
	}
	if data[0] != byte(41+1) {
		t.Fatalf("prefetched page corrupted: %#x", data[0])
	}
}

func TestPrefetchSequentialScanFasterThanWithout(t *testing.T) {
	run := func(prefetch int) time.Duration {
		m := prefetchMonitor(t, 16, prefetch)
		now := populate(t, m, 128)
		start := now
		for i := 0; i < 128; i++ {
			_, done, err := m.Touch(now, addr(i), false)
			if err != nil {
				t.Fatal(err)
			}
			now = done
		}
		return now - start
	}
	with, without := run(8), run(0)
	if with >= without {
		t.Fatalf("prefetch scan (%v) not faster than without (%v)", with, without)
	}
}

func TestPrefetchSkipsUnseenAndResident(t *testing.T) {
	m := prefetchMonitor(t, 16, 8)
	now := populate(t, m, 8) // only pages 0..7 exist
	// Fault page 4: prefetch may pull 5..7 but must not invent 8..12.
	if _, _, err := m.Touch(now, addr(4), false); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 13; i++ {
		if m.lru.Contains(addr(i)) {
			t.Fatalf("unseen page %d materialised", i)
		}
	}
}

func TestPrefetchRespectsLRUCapacity(t *testing.T) {
	m := prefetchMonitor(t, 4, 8)
	now := populate(t, m, 64)
	if _, _, err := m.Touch(now, addr(20), false); err != nil {
		t.Fatal(err)
	}
	if m.ResidentPages() > 4 {
		t.Fatalf("prefetch blew the LRU capacity: %d resident", m.ResidentPages())
	}
}

func TestPrefetchDisabledByDefault(t *testing.T) {
	m := newMonitor(t, ramcloudCfg(8), 64)
	now := populate(t, m, 32)
	if _, _, err := m.Touch(now, addr(10), false); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Prefetches != 0 {
		t.Fatal("prefetching active without being configured")
	}
}

// TestFailedReadLosesNoPage: a store read that fails with no resilience layer
// is a hard fault error, and it must cost nothing else — no readahead
// candidate taken off the write list, no LRU entry for the page that was
// never installed. Every page reads back its tag once the retry gets through.
// Window 0 is the windowless split read (StartGet), the rest the windowed one
// (MultiGet).
func TestFailedReadLosesNoPage(t *testing.T) {
	for _, tc := range []struct{ capacity, window int }{{4, 0}, {2, 4}, {3, 8}, {4, 4}, {8, 4}} {
		params := faulty.Uniform(0, 0)
		params.PerOp[faulty.OpGet].ErrorRate = 0.5
		params.PerOp[faulty.OpMultiGet].ErrorRate = 0.5
		store := faulty.Wrap(dram.New(dram.DefaultParams(), 9), params, 77)
		cfg := DefaultConfig(store, tc.capacity)
		cfg.PrefetchPages = tc.window
		cfg.WriteBatchSize = 3 // flush promptly so faults read the store
		m := newMonitor(t, cfg, 64)
		now, failed := time.Duration(0), 0
		for cycle := 0; cycle < 3; cycle++ {
			for p := 0; p < 12; p++ {
				data, done, err := m.Touch(now, addr(p), true)
				for tries := 0; err != nil; tries++ {
					if !errors.Is(err, faulty.ErrInjected) || tries == 40 {
						t.Fatalf("capacity %d, window %d: page %d: %v", tc.capacity, tc.window, p, err)
					}
					failed++
					data, done, err = m.Touch(done, addr(p), true)
				}
				now = done
				if cycle > 0 && data[0] != byte(p+1) {
					t.Fatalf("capacity %d, window %d, cycle %d: page %d reads %#x, want %#x",
						tc.capacity, tc.window, cycle, p, data[0], p+1)
				}
				data[0] = byte(p + 1)
			}
		}
		if failed == 0 {
			t.Errorf("capacity %d, window %d: no read failed; the test proves nothing", tc.capacity, tc.window)
		}
	}
}
