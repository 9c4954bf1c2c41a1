// Graph500 example: run breadth-first search over a graph whose working set
// is ~4× local DRAM, on FluidMem (RAMCloud) and on swap (NVMeoF), and compare
// TEPS — a single cell of the paper's Figure 4 sweep, runnable on its own.
package graph500_test

import (
	"fmt"
	"log"

	"fluidmem"
	"fluidmem/internal/graph500"
)

func Example() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// Graph500 scale 14 (4.3 MB graph) over 1 MB local DRAM
	//
	// FluidMem + RAMCloud      1.97 MTEPS  (262144 edges, 4 BFS roots, construction 10.651s, traversal 1.064s)
	// Swap + NVMeoF            1.28 MTEPS  (262144 edges, 4 BFS roots, construction 17.11s, traversal 1.642s)
	//
	// FluidMem speedup over swap: 1.54x (the paper's Figure 4c/d effect)
}

func run() error {
	const (
		scale   = 14 // 16384 vertices, ~4.5 MB graph
		localMB = 1  // squeeze it through 1 MB of DRAM
	)
	fmt.Printf("Graph500 scale %d (%.1f MB graph) over %d MB local DRAM\n\n",
		scale, float64(graph500.MemoryBytes(scale, 16))/(1<<20), localMB)

	type system struct {
		label string
		cfg   fluidmem.MachineConfig
	}
	systems := []system{
		{"FluidMem + RAMCloud", fluidmem.MachineConfig{
			Mode: fluidmem.ModeFluidMem, Backend: fluidmem.BackendRAMCloud}},
		{"Swap + NVMeoF      ", fluidmem.MachineConfig{
			Mode: fluidmem.ModeSwap, SwapDev: fluidmem.SwapNVMeoF}},
	}
	var teps []float64
	for _, sys := range systems {
		cfg := sys.cfg
		cfg.LocalMemory = localMB << 20
		cfg.GuestMemory = 4 * graph500.MemoryBytes(scale, 16)
		cfg.BootOS = true
		cfg.Seed = 1
		machine, err := fluidmem.NewMachine(cfg)
		if err != nil {
			return err
		}
		gcfg := graph500.DefaultConfig(scale)
		gcfg.Roots = 4
		gcfg.Validate = true
		res, _, err := graph500.Run(machine.Now(), machine.VM(), gcfg)
		if err != nil {
			return err
		}
		teps = append(teps, res.HarmonicMeanTEPS)
		fmt.Printf("%s  %8.2f MTEPS  (%d edges, %d BFS roots, construction %v, traversal %v)\n",
			sys.label, res.HarmonicMeanTEPS/1e6, res.Edges, len(res.TEPS),
			res.ConstructionTime.Round(1e6), res.TraversalTime.Round(1e6))
	}
	fmt.Printf("\nFluidMem speedup over swap: %.2fx (the paper's Figure 4c/d effect)\n", teps[0]/teps[1])
	return nil
}
