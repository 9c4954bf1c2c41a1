// Package profiling is the shared pprof plumbing for the measurement
// binaries (fluidmem-bench, hotpath-probe): CPU and allocation profiles gated
// behind flags, so wall-clock runs (see EXPERIMENTS.md) can be attributed to
// code without editing the harness.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins the profiles selected by non-empty paths and returns a stop
// function that finishes and writes them. The CPU profile streams from now
// until stop; the allocation profile snapshots at stop time (after a GC, so
// the heap profile reflects live steady state).
func Start(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuFile = f
	}
	stop := func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
			runtime.GC() // materialise the final allocation state
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("memprofile: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
		}
		return nil
	}
	return stop, nil
}
