// Command hotpath-probe measures wall-clock fault throughput and heap
// allocations of the monitor's miss+evict+writeback hot path via the public
// API only, so the same source runs against older trees for before/after
// comparisons (see EXPERIMENTS.md). The -cpuprofile/-memprofile flags
// attribute where the time and bytes go.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"fluidmem/internal/core"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/profiling"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hotpath-probe:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		workers = flag.Int("workers", 4, "fault-pipeline width")
		faults  = flag.Int("faults", 2_000_000, "measured fault count")
		cpuOut  = flag.String("cpuprofile", "", "write a CPU profile of the measured phase to this file")
		memOut  = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	const base = 0x7f00_0000_0000
	const pages = 512
	const capacity = 256

	store := ramcloud.New(ramcloud.DefaultParams(), 9)
	cfg := core.DefaultConfig(store, capacity)
	cfg.Workers = *workers

	m, err := core.NewMonitor(cfg, nil, "probe")
	if err != nil {
		return err
	}
	if _, err := m.RegisterRange(base, pages*core.PageSize, 1); err != nil {
		return err
	}
	// touch runs one dirty fault.
	var now time.Duration
	i := 0
	touch := func() error {
		_, done, terr := m.Touch(now, base+uint64(i%pages)*core.PageSize, true)
		now = done
		i++
		return terr
	}

	for k := 0; k < 3*pages; k++ { // warm to steady state
		if err := touch(); err != nil {
			return err
		}
	}

	stopProfiles, err := profiling.Start(*cpuOut, *memOut)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for k := 0; k < *faults; k++ {
		if err := touch(); err != nil {
			return err
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	fmt.Printf("workers=%d faults=%d wall=%v wall_faults_per_sec=%.0f allocs_per_fault=%.3f bytes_per_fault=%.1f\n",
		*workers, *faults, wall.Round(time.Millisecond), float64(*faults)/wall.Seconds(),
		float64(after.Mallocs-before.Mallocs)/float64(*faults),
		float64(after.TotalAlloc-before.TotalAlloc)/float64(*faults))
	return nil
}
