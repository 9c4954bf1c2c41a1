// Package fluidmem is a simulation-faithful reimplementation of FluidMem
// (Caldwell et al., "FluidMem: Full, Flexible, and Fast Memory
// Disaggregation for the Cloud", ICDCS 2020): full memory disaggregation for
// unmodified VMs via a user-space page-fault handler over userfaultfd, with
// pages stored in a modular remote key-value backend.
//
// Everything hardware- or kernel-bound in the original (userfaultfd, QEMU
// guests, InfiniBand, RAMCloud/Memcached servers, NVMeoF and SSD block
// devices) is reproduced as a deterministic discrete-event simulation on a
// virtual clock, calibrated to the paper's microbenchmarks. See DESIGN.md
// for the substitution table and EXPERIMENTS.md for paper-vs-measured
// results across every table and figure.
//
// # Quick start
//
//	machine, err := fluidmem.NewMachine(fluidmem.MachineConfig{
//		Mode:         fluidmem.ModeFluidMem,
//		Backend:      fluidmem.BackendRAMCloud,
//		LocalMemory:  1 << 30, // 1 GB of local DRAM (the LRU list size)
//		GuestMemory:  5 << 30, // 5 GB visible to the guest
//		BootOS:       true,
//	})
//	if err != nil { ... }
//	seg, err := machine.Alloc("heap", 2<<30)
//	machine.Write64(seg.Addr(0), 42)
//	v, _ := machine.Read64(seg.Addr(0))
//
// The machine's Now() reports virtual time consumed. Stats() returns one
// aggregated telemetry snapshot — per-layer counters plus, when a Tracer is
// configured in MachineConfig, per-phase fault-latency percentiles; the
// Table-I-style code-path profiler stays reachable through Monitor(). Pass
// NewTracer(true) as MachineConfig.Tracer and WriteTrace() emits the run's
// virtual-time event log in Chrome trace format.
//
// The same MachineConfig with ModeSwap builds the swap-based partial
// disaggregation baseline (NVMeoF / SSD / remote-DRAM swap) the paper
// compares against.
package fluidmem
