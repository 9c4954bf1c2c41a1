// Package bench contains the experiment harness that regenerates every table
// and figure in the paper's evaluation (§VI), plus the ablations listed in
// DESIGN.md. Each experiment builds scaled-down machines (same ratios as the
// paper's testbed, smaller absolute sizes; see DESIGN.md §5), runs the
// paper's workload recipe, and renders a paper-style text table.
package bench

import (
	"fmt"
	"time"

	"fluidmem"
	"fluidmem/internal/core"
	"fluidmem/internal/vm"
)

// Options tune experiment scale.
type Options struct {
	// Quick shrinks workloads for use inside `go test -bench` iterations;
	// the full-size runs back EXPERIMENTS.md.
	Quick bool
	// Seed drives all randomness.
	Seed uint64
}

// SystemConfig names one (mechanism, backend) comparison point — a column
// group in Figure 3 and Figure 4.
type SystemConfig struct {
	// Label is the paper's name for the configuration.
	Label string
	// Mode and Backend/SwapDev pick the machine wiring.
	Mode    fluidmem.Mode
	Backend fluidmem.Backend
	SwapDev fluidmem.SwapDevice
}

// Systems is the paper's six-way comparison (Figure 3, Figure 4).
func Systems() []SystemConfig {
	return []SystemConfig{
		{Label: "FluidMem DRAM", Mode: fluidmem.ModeFluidMem, Backend: fluidmem.BackendDRAM},
		{Label: "FluidMem RAMCloud", Mode: fluidmem.ModeFluidMem, Backend: fluidmem.BackendRAMCloud},
		{Label: "FluidMem Memcached", Mode: fluidmem.ModeFluidMem, Backend: fluidmem.BackendMemcached},
		{Label: "Swap DRAM", Mode: fluidmem.ModeSwap, SwapDev: fluidmem.SwapDRAM},
		{Label: "Swap NVMeoF", Mode: fluidmem.ModeSwap, SwapDev: fluidmem.SwapNVMeoF},
		{Label: "Swap SSD", Mode: fluidmem.ModeSwap, SwapDev: fluidmem.SwapSSD},
	}
}

// newMachine builds a machine for a system at the given memory ratio.
func newMachine(sys SystemConfig, localBytes, guestBytes uint64, bootOS bool, seed uint64) (*fluidmem.Machine, error) {
	cfg := fluidmem.MachineConfig{
		Mode:        sys.Mode,
		Backend:     sys.Backend,
		SwapDev:     sys.SwapDev,
		LocalMemory: localBytes,
		GuestMemory: guestBytes,
		BootOS:      bootOS,
		Seed:        seed,
	}
	m, err := fluidmem.NewMachine(cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", sys.Label, err)
	}
	return m, nil
}

// newMonitorMachine builds a FluidMem machine with explicit monitor
// optimisation toggles (Table II, ablations).
func newMonitorMachine(backend fluidmem.Backend, localBytes, guestBytes uint64, mutate func(*core.Config), seed uint64) (*fluidmem.Machine, error) {
	mcfg := core.DefaultConfig(nil, int(localBytes/fluidmem.PageSize))
	if mutate != nil {
		mutate(&mcfg)
	}
	return fluidmem.NewMachine(fluidmem.MachineConfig{
		Mode:        fluidmem.ModeFluidMem,
		Backend:     backend,
		LocalMemory: localBytes,
		GuestMemory: guestBytes,
		Monitor:     &mcfg,
		Seed:        seed,
	})
}

// microseconds formats a duration the way the paper's tables do.
func microseconds(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Microsecond))
}

// scaledOSPages is the boot footprint used by scaled experiments: the paper's
// guests boot at ≈30% of their 1 GB local DRAM.
func scaledOSPages(localBytes uint64) int {
	return int(localBytes / vm.PageSize * 3 / 10)
}
