package core

import (
	"testing"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/kvstore/storetest"
)

// TestWriteBackReputsOrCopies runs a read-mostly stream — one access in eight
// a tagged write — over every alloc-harness backend behind the aliasing net,
// checking every read against a model. Without clean drop every eviction is
// written back, most of them of pages the guest never wrote. A store that
// declares kvstore.Reput gets those back as its own read buffers, so the
// only host copies are first writes; a composite (replicated set, cluster
// pool) does not declare it and gets a copy of each instead.
func TestWriteBackReputsOrCopies(t *testing.T) {
	const pages, capacity = 64, 16
	for name, mk := range allocBenchBackends(t) {
		t.Run(name, func(t *testing.T) {
			store := storetest.Poison(t, mk())
			cfg := DefaultConfig(store, capacity)
			cfg.WriteBatchSize = 4
			m := newMonitor(t, cfg, pages)
			var model [pages]byte
			rng := clock.NewRand(5)
			now := time.Duration(0)
			writes := uint64(0)
			for i := 0; i < 4000; i++ {
				p, write := rng.Intn(pages), rng.Intn(8) == 0
				data, done, err := m.Touch(now, addr(p), write)
				if err != nil {
					t.Fatalf("access %d to page %d: %v", i, p, err)
				}
				now = done
				if data[0] != model[p] {
					t.Fatalf("access %d: page %d reads %#x, last write was %#x", i, p, data[0], model[p])
				}
				if write {
					model[p] = byte(i%251) + 1
					data[0] = model[p]
					writes++
				}
			}
			if _, err := m.Drain(now); err != nil {
				t.Fatal(err)
			}
			store.Verify(now)
			copies, evictions := m.PageCopies(), m.Stats().Evictions
			if storetest.Reputs(store) {
				if copies > writes {
					t.Fatalf("%d page copies for %d writes over a store that takes its buffers back; want at most one a write", copies, writes)
				}
			} else if copies < evictions/2 {
				t.Fatalf("%d page copies over %d evictions (%d writes) of a store that does not take its buffers back; want a copy of every page evicted unwritten", copies, evictions, writes)
			}
			t.Logf("%d page copies, %d writes, %d evictions", copies, writes, evictions)
		})
	}
}
