package bench

import (
	"fmt"
	"strings"

	"fluidmem"
	"fluidmem/internal/blockdev"
	"fluidmem/internal/mongodb"
	"fluidmem/internal/stats"
	"fluidmem/internal/workload/ycsb"
)

// Fig5Config scales the MongoDB/YCSB experiment. The paper: 1 GB local DRAM,
// a ≈5 GB dataset on local SSD, WiredTiger cache sizes of 1–3 GB, YCSB
// workload C. The scaled default divides everything by 256.
type Fig5Config struct {
	// LocalBytes is the guest's local DRAM budget.
	LocalBytes uint64
	// DatasetRecords is the number of 1 KB records on disk.
	DatasetRecords int
	// CacheSizes lists WiredTiger cache sizes to sweep.
	CacheSizes []uint64
	// Operations is YCSB reads per run.
	Operations int
	// ZipfTheta is the key-distribution skew. The scaled dataset has far
	// fewer records than the paper's 5 M, so a slightly lower skew keeps the
	// cache-size sweep meaningful (hit rate grows with cache, as in the
	// paper's Figure 5).
	ZipfTheta float64
	Seed      uint64
}

// DefaultFig5Config returns the scaled recipe: 4 MB DRAM, 20 MB dataset,
// caches of 1×, 2×, and 3× DRAM.
func DefaultFig5Config(opts Options) Fig5Config {
	cfg := Fig5Config{
		LocalBytes:     4 << 20,
		DatasetRecords: 20 << 10, // 20 Mi of 1 KB records ≈ 20 MB
		CacheSizes:     []uint64{4 << 20, 8 << 20, 12 << 20},
		Operations:     150000,
		ZipfTheta:      0.6,
		Seed:           opts.Seed,
	}
	if opts.Quick {
		cfg.LocalBytes = 1 << 20
		cfg.DatasetRecords = 4 << 10
		cfg.CacheSizes = []uint64{1 << 20, 2 << 20}
		cfg.Operations = 4000
	}
	return cfg
}

// Fig5Series is one (system, cache size) time course.
type Fig5Series struct {
	System     string
	CacheBytes uint64
	Result     *ycsb.Result
	Stats      mongodb.Stats
}

// Fig5Result reproduces Figure 5: read-latency time courses for MongoDB on
// swap (NVMeoF) vs FluidMem (RAMCloud) across cache sizes.
type Fig5Result struct {
	Config Fig5Config
	Series []Fig5Series
}

// Fig5Systems is the paper's two-way comparison for this experiment.
func Fig5Systems() []SystemConfig {
	return []SystemConfig{
		{Label: "Swap NVMeoF", Mode: fluidmem.ModeSwap, SwapDev: fluidmem.SwapNVMeoF},
		{Label: "FluidMem RAMCloud", Mode: fluidmem.ModeFluidMem, Backend: fluidmem.BackendRAMCloud},
	}
}

// RunFig5 sweeps cache sizes for both systems.
func RunFig5(opts Options) (*Fig5Result, error) {
	cfg := DefaultFig5Config(opts)
	out := &Fig5Result{Config: cfg}
	for _, sys := range Fig5Systems() {
		for _, cache := range cfg.CacheSizes {
			series, err := runFig5Cell(sys, cfg, cache)
			if err != nil {
				return nil, fmt.Errorf("fig5 %s cache %d MB: %w", sys.Label, cache>>20, err)
			}
			out.Series = append(out.Series, *series)
		}
	}
	return out, nil
}

func runFig5Cell(sys SystemConfig, cfg Fig5Config, cacheBytes uint64) (*Fig5Series, error) {
	// Guest address space: the cache plus OS plus slack. The VM is rebooted
	// per configuration, as the paper does between tests.
	guestBytes := cacheBytes*2 + cfg.LocalBytes
	m, err := newMachine(sys, cfg.LocalBytes, guestBytes, true, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// MongoDB's data files live on a local SSD in every configuration.
	datasetBytes := uint64(cfg.DatasetRecords) * mongodb.RecordBytes
	disk, err := blockdev.New(blockdev.SSDParams(datasetBytes*2), cfg.Seed+301)
	if err != nil {
		return nil, err
	}
	mcfg := mongodb.DefaultConfig(cfg.DatasetRecords, cacheBytes)
	mcfg.Seed = cfg.Seed
	store, now, err := mongodb.Open(m.Now(), m.VM(), disk, mcfg)
	if err != nil {
		return nil, err
	}
	ycfg := ycsb.DefaultConfig(cfg.DatasetRecords, cfg.Operations)
	ycfg.ZipfTheta = cfg.ZipfTheta
	ycfg.Seed = cfg.Seed
	res, _, err := ycsb.Run(now, store, ycfg)
	if err != nil {
		return nil, err
	}
	return &Fig5Series{
		System:     sys.Label,
		CacheBytes: cacheBytes,
		Result:     res,
		Stats:      store.Stats(),
	}, nil
}

// Render prints averages per configuration plus a down-sampled time course,
// mirroring the figure's two panels.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: YCSB-C 1 KB read latency, MongoDB/WiredTiger (%d records, %d MB local DRAM)\n",
		r.Config.DatasetRecords, r.Config.LocalBytes>>20)
	fmt.Fprintf(&b, "%-20s %12s %12s %12s %12s %10s\n",
		"System", "cache MB", "avg µs", "p95 µs", "stdev µs", "hit rate")
	for _, s := range r.Series {
		hitRate := float64(s.Stats.CacheHits) / float64(s.Stats.Reads)
		fmt.Fprintf(&b, "%-20s %12d %12s %12s %12s %9.1f%%\n",
			s.System, s.CacheBytes>>20,
			microseconds(s.Result.Latencies.Mean()),
			microseconds(s.Result.Latencies.Percentile(95)),
			microseconds(s.Result.Latencies.Stdev()),
			100*hitRate)
	}
	b.WriteString("\nTime course (bucketed mean latency, µs):\n")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%-20s cache %2d MB:", s.System, s.CacheBytes>>20)
		for _, p := range s.Result.Series.Buckets(10) {
			fmt.Fprintf(&b, " %7.0f", stats.Micros(p.Value))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
