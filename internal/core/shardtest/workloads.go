package shardtest

import (
	"fluidmem/internal/core"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/memcached"
	"fluidmem/internal/kvstore/ramcloud"
)

// workloads spans the monitor's major configuration axes: remote vs local
// backend, async vs sync write paths, readahead on and off, and churn
// (discard + resize). Each is a distinct way worker sharding could
// leak into logical behaviour.
func workloads() []Workload {
	return []Workload{
		{
			// The headline deployment: RAMCloud backend, all §V-B
			// optimisations, mixed random + scan traffic.
			Name:  "ramcloud-async",
			Pages: 96, Steps: 1200,
			NewConfig: func(seed uint64) core.Config {
				return core.DefaultConfig(ramcloud.New(ramcloud.DefaultParams(), seed+11), 24)
			},
		},
		{
			// Readahead: every demand fault folds its window into one
			// MultiGet, the amortised-round-trip path.
			Name:  "ramcloud-batched-prefetch",
			Pages: 96, Steps: 1200,
			NewConfig: func(seed uint64) core.Config {
				cfg := core.DefaultConfig(ramcloud.New(ramcloud.DefaultParams(), seed+13), 24)
				cfg.PrefetchPages = 4
				return cfg
			},
		},
		{
			// Unoptimised monitor over a local store: synchronous writes on
			// the critical path, no steals, no split reads.
			Name:  "dram-sync-baseline",
			Pages: 64, Steps: 800,
			NewConfig: func(seed uint64) core.Config {
				return core.BaselineConfig(dram.New(dram.DefaultParams(), seed+17), 16)
			},
		},
		{
			// Readahead over memcached, with balloon discards and runtime
			// resizes churning the resident set.
			Name:  "memcached-prefetch-churn",
			Pages: 80, Steps: 1000,
			NewConfig: func(seed uint64) core.Config {
				cfg := core.DefaultConfig(memcached.New(memcached.DefaultParams(), seed+19), 20)
				cfg.PrefetchPages = 4
				return cfg
			},
			Discard: true,
			Resize:  true,
		},
		{
			// Write-heavy traffic through the coalescing write-back engine:
			// most faults dirty their page, so eviction pressure exercises
			// coalescing, group flushes, and clean/zero decisions at once.
			Name:  "ramcloud-writeback-writeheavy",
			Pages: 96, Steps: 1200,
			NewConfig: func(seed uint64) core.Config {
				cfg := core.DefaultConfig(ramcloud.New(ramcloud.DefaultParams(), seed+23), 24)
				cfg.ElideZeroPages = true
				cfg.CleanPageDrop = true
				return cfg
			},
			WriteProb: 0.8,
		},
		{
			// Zero-heavy traffic: half the writes return pages to all-zero
			// contents, so the zero bitmap and UFFDIO_ZEROPAGE refills carry
			// much of the load — the elision determinism case.
			Name:  "ramcloud-writeback-zeroheavy",
			Pages: 96, Steps: 1200,
			NewConfig: func(seed uint64) core.Config {
				cfg := core.DefaultConfig(ramcloud.New(ramcloud.DefaultParams(), seed+29), 24)
				cfg.ElideZeroPages = true
				cfg.CleanPageDrop = true
				return cfg
			},
			WriteProb:  0.5,
			ZeroWrites: true,
		},
		{
			// Read-only traffic with the engine on: every page stays clean
			// (or zero), so evictions produce no store writes at all and the
			// whole write path must still replay identically.
			Name:  "dram-writeback-readonly",
			Pages: 64, Steps: 800,
			NewConfig: func(seed uint64) core.Config {
				cfg := core.DefaultConfig(dram.New(dram.DefaultParams(), seed+31), 16)
				cfg.ElideZeroPages = true
				cfg.CleanPageDrop = true
				return cfg
			},
			WriteProb: -1,
		},
		{
			// Everything on: elision + clean drop + batched readahead +
			// discard/resize churn. The widest surface for a sharding leak.
			Name:  "memcached-writeback-batched-churn",
			Pages: 80, Steps: 1000,
			NewConfig: func(seed uint64) core.Config {
				cfg := core.DefaultConfig(memcached.New(memcached.DefaultParams(), seed+37), 20)
				cfg.ElideZeroPages = true
				cfg.CleanPageDrop = true
				cfg.PrefetchPages = 4
				return cfg
			},
			WriteProb:  0.6,
			ZeroWrites: true,
			Discard:    true,
			Resize:     true,
		},
	}
}
