// MongoDB example: a document store whose WiredTiger-style cache is three
// times the guest's local DRAM, serving a zipfian YCSB-C read workload — the
// paper's Figure 5 scenario for one cache size, FluidMem vs swap.
package mongodb_test

import (
	"fmt"
	"log"

	"fluidmem"
	"fluidmem/internal/blockdev"
	"fluidmem/internal/mongodb"
	"fluidmem/internal/stats"
	"fluidmem/internal/workload/ycsb"
)

func Example() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// MongoDB/WiredTiger: 8192 records, 2 MB cache over 2 MB DRAM, 20000 YCSB-C reads
	//
	// Swap + NVMeoF        avg    267.3µs  p95    594.2µs  stdev   179.5µs  cache hit 57.7%
	// FluidMem + RAMCloud  avg    212.8µs  p95    422.0µs  stdev   119.7µs  cache hit 57.7%
	//
	// Swap cannot give the storage engine stable extra capacity;
	// FluidMem provides what behaves like native memory (§VI-D2).
}

func run() error {
	const (
		records = 8 << 10 // 8 Mi 1 KB records ≈ 8 MB on disk
		cacheMB = 2
		localMB = 2
		ops     = 20000
	)
	fmt.Printf("MongoDB/WiredTiger: %d records, %d MB cache over %d MB DRAM, %d YCSB-C reads\n\n",
		records, cacheMB, localMB, ops)

	type system struct {
		label string
		cfg   fluidmem.MachineConfig
	}
	for _, sys := range []system{
		{"Swap + NVMeoF      ", fluidmem.MachineConfig{Mode: fluidmem.ModeSwap, SwapDev: fluidmem.SwapNVMeoF}},
		{"FluidMem + RAMCloud", fluidmem.MachineConfig{Mode: fluidmem.ModeFluidMem, Backend: fluidmem.BackendRAMCloud}},
	} {
		cfg := sys.cfg
		cfg.LocalMemory = localMB << 20
		cfg.GuestMemory = 4 * cacheMB << 20
		cfg.BootOS = true
		cfg.Seed = 1
		machine, err := fluidmem.NewMachine(cfg)
		if err != nil {
			return err
		}
		disk, err := blockdev.New(blockdev.SSDParams(4*records*mongodb.RecordBytes), 7)
		if err != nil {
			return err
		}
		store, now, err := mongodb.Open(machine.Now(), machine.VM(), disk, mongodb.DefaultConfig(records, cacheMB<<20))
		if err != nil {
			return err
		}
		ycfg := ycsb.DefaultConfig(records, ops)
		ycfg.ZipfTheta = 0.6
		res, _, err := ycsb.Run(now, store, ycfg)
		if err != nil {
			return err
		}
		st := store.Stats()
		fmt.Printf("%s  avg %8.1fµs  p95 %8.1fµs  stdev %7.1fµs  cache hit %4.1f%%\n",
			sys.label,
			stats.Micros(res.Latencies.Mean()),
			stats.Micros(res.Latencies.Percentile(95)),
			stats.Micros(res.Latencies.Stdev()),
			100*float64(st.CacheHits)/float64(st.Reads))
	}
	fmt.Println("\nSwap cannot give the storage engine stable extra capacity;")
	fmt.Println("FluidMem provides what behaves like native memory (§VI-D2).")
	return nil
}
