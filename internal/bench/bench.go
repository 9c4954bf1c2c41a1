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
	"fluidmem/internal/core/resilience"
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

// newMonitorMachine builds a FluidMem machine from cfg whose monitor runs
// core.DefaultConfig changed by mutate (nil: unchanged): Table I and II, the
// ablations, chaos and cluster.
func newMonitorMachine(cfg fluidmem.MachineConfig, mutate func(*core.Config)) (*fluidmem.Machine, error) {
	mcfg := core.DefaultConfig(nil, int(cfg.LocalMemory/fluidmem.PageSize))
	if mutate != nil {
		mutate(&mcfg)
	}
	cfg.Mode = fluidmem.ModeFluidMem
	cfg.Monitor = &mcfg
	return fluidmem.NewMachine(cfg)
}

// withResilience enables the default resilience policy, the layer that
// absorbs stale epochs, crash windows and member errors (chaos, cluster).
func withResilience(cfg *core.Config) {
	policy := resilience.DefaultPolicy()
	cfg.Resilience = &policy
}

// microseconds formats a duration the way the paper's tables do.
func microseconds(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Microsecond))
}
