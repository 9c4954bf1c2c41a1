package core

import (
	"testing"
	"time"

	"fluidmem/internal/kvstore/dram"
)

// writebackCfg is the fully optimised config plus the write-path features
// under test (zero elision + clean drop).
func writebackCfg(capacity int) Config {
	cfg := dramCfg(capacity)
	cfg.ElideZeroPages = true
	cfg.CleanPageDrop = true
	return cfg
}

func TestZeroElisionAvoidsStoreTraffic(t *testing.T) {
	store := dram.New(dram.DefaultParams(), 9)
	cfg := DefaultConfig(store, 2)
	cfg.ElideZeroPages = true
	m := newMonitor(t, cfg, 8)

	// Touch three pages without ever writing data: page 0 is evicted with
	// all-zero contents.
	now := time.Duration(0)
	for i := 0; i < 3; i++ {
		var err error
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Evictions != 1 || st.ZeroElided != 1 {
		t.Fatalf("evictions=%d zeroElided=%d, want 1/1", st.Evictions, st.ZeroElided)
	}
	if s := store.Stats(); s.Puts != 0 || s.MultiPuts != 0 {
		t.Fatalf("zero eviction hit the store: %+v", s)
	}

	// Re-faulting the elided page is a local zero refill, not a store read.
	getsBefore := store.Stats().Gets
	data, now, err := m.Touch(now, addr(0), false)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range data {
		if b != 0 {
			t.Fatalf("refilled page byte %d = %#x, want 0", i, b)
		}
	}
	st = m.Stats()
	if st.ZeroRefills != 1 {
		t.Fatalf("zeroRefills = %d, want 1", st.ZeroRefills)
	}
	if store.Stats().Gets != getsBefore || store.Stats().MultiGets != 0 {
		t.Fatal("zero refill read the store")
	}
	_ = now
}

func TestZeroElisionSupersededByDirtyData(t *testing.T) {
	store := dram.New(dram.DefaultParams(), 9)
	cfg := DefaultConfig(store, 2)
	cfg.ElideZeroPages = true
	m := newMonitor(t, cfg, 16)

	// Dirty page 0, evict it (non-zero: queued for write-back), steal it
	// back, then zero it and evict again — the second eviction must elide
	// and the refill must observe zeroes, not the earlier dirty bytes.
	now := time.Duration(0)
	data, now, err := m.Touch(now, addr(0), true)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 7
	for i := 1; i <= 2; i++ {
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.ZeroElided != 0 {
		t.Fatalf("dirty eviction elided: %+v", st)
	}
	data, now, err = m.Touch(now, addr(0), true) // steal back
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 7 {
		t.Fatalf("stolen data[0] = %d, want 7", data[0])
	}
	data[0] = 0
	for i := 3; i <= 4; i++ {
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	data, _, err = m.Touch(now, addr(0), false)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0 {
		t.Fatalf("zeroed page refilled with stale data: %d", data[0])
	}
	if st := m.Stats(); st.ZeroElided == 0 || st.ZeroRefills == 0 {
		t.Fatalf("zero eviction not elided: %+v", st)
	}
}

func TestCleanPageDropAvoidsRewrite(t *testing.T) {
	store := dram.New(dram.DefaultParams(), 9)
	cfg := DefaultConfig(store, 2)
	cfg.CleanPageDrop = true
	m := newMonitor(t, cfg, 16)

	// Dirty page 0 and push it to the store.
	now := time.Duration(0)
	data, now, err := m.Touch(now, addr(0), true)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 1
	for i := 1; i <= 2; i++ {
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = m.Drain(now); err != nil {
		t.Fatal(err)
	}

	// Read it back (store-backed install: write-protected) and evict it
	// again without writing: the store copy is current, so the eviction
	// drops the page with no write at all.
	if _, now, err = m.Touch(now, addr(0), false); err != nil {
		t.Fatal(err)
	}
	putsBefore := storeWrites(store)
	for i := 3; i <= 5; i++ {
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = m.Drain(now); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.CleanDropped != 1 {
		t.Fatalf("cleanDropped = %d, want 1 (stats %+v)", st.CleanDropped, st)
	}
	// Pages 3..5 are dirty-zero... no elision here, so their evictions do
	// write; the clean victim must not. Three new pages evicted at least
	// once each, page 0 dropped: writes grew by exactly the dirty victims.
	if got := storeWrites(store) - putsBefore; got < 1 {
		t.Fatalf("expected dirty evictions to write, writes grew %d", got)
	}

	// The dropped page's contents survive in the store.
	data, _, err = m.Touch(now, addr(0), false)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 1 {
		t.Fatalf("clean-dropped page lost data: %d", data[0])
	}
}

func TestWriteProtectFaultMakesPageDirtyAgain(t *testing.T) {
	store := dram.New(dram.DefaultParams(), 9)
	cfg := DefaultConfig(store, 2)
	cfg.CleanPageDrop = true
	m := newMonitor(t, cfg, 16)

	// Store-backed install, then a guest WRITE while resident: the WP fault
	// clears the protection, so the next eviction must write the new bytes.
	now := time.Duration(0)
	data, now, err := m.Touch(now, addr(0), true)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 1
	for i := 1; i <= 2; i++ {
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = m.Drain(now); err != nil {
		t.Fatal(err)
	}
	if _, now, err = m.Touch(now, addr(0), false); err != nil {
		t.Fatal(err)
	}
	data, now, err = m.Touch(now, addr(0), true) // resident write: WP fault
	if err != nil {
		t.Fatal(err)
	}
	if m.WPFaults() != 1 {
		t.Fatalf("wpFaults = %d, want 1", m.WPFaults())
	}
	data[0] = 2
	for i := 3; i <= 5; i++ {
		if _, now, err = m.Touch(now, addr(i), true); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = m.Drain(now); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.CleanDropped != 0 {
		t.Fatalf("dirty page clean-dropped: %+v", st)
	}
	data, _, err = m.Touch(now, addr(0), false)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 2 {
		t.Fatalf("rewritten page lost update: %d, want 2", data[0])
	}
}

// storeWrites counts pages the store has been asked to write via any path.
func storeWrites(s *dram.Store) uint64 {
	st := s.Stats()
	return st.Puts
}

// TestWritebackStatsWidthInvariant replays one workload at 1 and 4 workers:
// the ZeroElided / CleanDropped / ZeroRefills totals, like every counter but
// InFlightWaits, must not depend on the width.
func TestWritebackStatsWidthInvariant(t *testing.T) {
	run := func(workers int) Stats {
		store := dram.New(dram.DefaultParams(), 9)
		cfg := DefaultConfig(store, 8)
		cfg.ElideZeroPages = true
		cfg.CleanPageDrop = true
		cfg.Workers = workers
		m := newMonitor(t, cfg, 64)
		now := time.Duration(0)
		var err error
		// Pass 1: dirty the even pages, leave odd pages zero.
		for i := 0; i < 32; i++ {
			var data []byte
			if data, now, err = m.Touch(now, addr(i), true); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				data[0] = byte(i + 1)
			}
		}
		// Push the dirty evictions to the store so pass 2 reads it rather
		// than stealing from the write list (steals are not store-backed).
		if now, err = m.Drain(now); err != nil {
			t.Fatal(err)
		}
		// Pass 2: read everything back (zero refills for odd pages, store
		// reads + WP installs for even), then a third read-only pass so the
		// WP'd pages get clean-dropped on re-eviction.
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 32; i++ {
				if _, now, err = m.Touch(now, addr(i), false); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err = m.Drain(now); err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}

	st1, st4 := run(1), run(4)
	if st1.ZeroElided == 0 || st1.CleanDropped == 0 || st1.ZeroRefills == 0 {
		t.Fatalf("workload did not exercise all counters: %+v", st1)
	}
	// InFlightWaits is legitimately timing-dependent; everything else must
	// be identical.
	st1.InFlightWaits, st4.InFlightWaits = 0, 0
	if st1 != st4 {
		t.Fatalf("stats diverge across worker counts:\n 1: %+v\n 4: %+v", st1, st4)
	}
}
