package core

import (
	"testing"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/memcached"
	"fluidmem/internal/kvstore/ramcloud"
)

// TestMonitorAgainstOracle model-checks the monitor: a long random sequence
// of page reads, writes, discards, and LRU resizes is mirrored against a
// plain in-memory oracle. After every step the monitor's visible memory must
// match the oracle and its invariants must hold. This is the strongest
// integrity net in the package: any lost write, stale read, or leaked
// resident page anywhere in the fault/evict/steal/flush machinery surfaces
// here.
func TestMonitorAgainstOracle(t *testing.T) {
	backends := map[string]func() Config{
		"dram":      func() Config { return DefaultConfig(dram.New(dram.DefaultParams(), 5), 24) },
		"ramcloud":  func() Config { return DefaultConfig(ramcloud.New(ramcloud.DefaultParams(), 5), 24) },
		"memcached": func() Config { return DefaultConfig(memcached.New(memcached.DefaultParams(), 5), 24) },
		"sync":      func() Config { return BaselineConfig(ramcloud.New(ramcloud.DefaultParams(), 5), 24) },
		"compress": func() Config {
			cfg := DefaultConfig(ramcloud.New(ramcloud.DefaultParams(), 5), 24)
			p := DefaultCompressParams(64 * PageSize)
			cfg.Compress = &p
			return cfg
		},
		"prefetch": func() Config {
			cfg := DefaultConfig(ramcloud.New(ramcloud.DefaultParams(), 5), 24)
			cfg.PrefetchPages = 4
			return cfg
		},
		"writeback": func() Config {
			cfg := DefaultConfig(ramcloud.New(ramcloud.DefaultParams(), 5), 24)
			cfg.ElideZeroPages = true
			cfg.CleanPageDrop = true
			return cfg
		},
		"writeback-batched": func() Config {
			cfg := DefaultConfig(ramcloud.New(ramcloud.DefaultParams(), 5), 24)
			cfg.ElideZeroPages = true
			cfg.CleanPageDrop = true
			cfg.PrefetchPages = 4
			return cfg
		},
		"writeback-sync": func() Config {
			cfg := BaselineConfig(ramcloud.New(ramcloud.DefaultParams(), 5), 24)
			cfg.ElideZeroPages = true
			cfg.CleanPageDrop = true
			return cfg
		},
	}
	for name, mkCfg := range backends {
		name, mkCfg := name, mkCfg
		t.Run(name, func(t *testing.T) {
			runMonitorOracle(t, mkCfg(), 4000, 96, 0xBEEF)
		})
	}
}

func runMonitorOracle(t *testing.T, cfg Config, steps, pages int, seed uint64) {
	t.Helper()
	m, err := NewMonitor(cfg, nil, "hyp-oracle")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterRange(testBase, uint64(pages)*PageSize, 4242); err != nil {
		t.Fatal(err)
	}
	rng := clock.NewRand(seed)
	// oracle[i] == nil means the page was never written or was discarded
	// (reads must see zeroes).
	oracle := make([][]byte, pages)
	now := time.Duration(0)

	for step := 0; step < steps; step++ {
		page := rng.Intn(pages)
		a := addr(page)
		switch rng.Intn(10) {
		case 0: // discard (balloon)
			m.Discard(a)
			oracle[page] = nil
		case 1: // resize the LRU
			newCap := 8 + rng.Intn(32)
			if now, err = m.Resize(now, newCap); err != nil {
				t.Fatalf("step %d resize: %v", step, err)
			}
		case 2, 3, 4: // write a fresh byte at a random offset
			data, done, err := m.Touch(now, a, true)
			if err != nil {
				t.Fatalf("step %d write: %v", step, err)
			}
			now = done
			if oracle[page] == nil {
				oracle[page] = make([]byte, PageSize)
			}
			off := rng.Intn(PageSize)
			val := byte(rng.Uint64()) | 1
			data[off] = val
			oracle[page][off] = val
		default: // read and verify the whole page
			data, done, err := m.Touch(now, a, false)
			if err != nil {
				t.Fatalf("step %d read: %v", step, err)
			}
			now = done
			want := oracle[page]
			for off := 0; off < PageSize; off += 97 {
				var w byte
				if want != nil {
					w = want[off]
				}
				if data[off] != w {
					t.Fatalf("step %d: page %d offset %d = %#x, oracle %#x",
						step, page, off, data[off], w)
				}
			}
		}
		// Invariants after every step.
		if got, limit := m.ResidentPages(), m.FootprintLimit(); got > limit {
			t.Fatalf("step %d: resident %d > limit %d", step, got, limit)
		}
		if err := unseenPageFact(m); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if prev := now; prev < 0 {
			t.Fatalf("step %d: negative virtual time", step)
		}
	}
	// Final drain must succeed and leave the write list empty.
	if _, err := m.Drain(now); err != nil {
		t.Fatal(err)
	}
	if m.WriteListLen() != 0 {
		t.Fatalf("write list holds %d entries after drain", m.WriteListLen())
	}
}
