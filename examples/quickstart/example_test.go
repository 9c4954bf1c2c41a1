// Quickstart: boot a FluidMem-backed VM whose guest memory is five times its
// local DRAM budget, write a dataset bigger than local memory, and read it
// back — every page transparently round-trips through the remote key-value
// store.
package quickstart_test

import (
	"fmt"
	"log"

	"fluidmem"
)

func Example() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// booted: 613 pages resident (2.4 MB), boot took 13.830371ms of virtual time
	// writing 6144 pages (24 MB) through an 8 MB window...
	// reading everything back...
	//
	// all 6144 pages verified.
	// resident now: 2048 pages — never above the local budget
	// monitor: 12901 faults (6757 first-touch, 6144 remote reads, 0 steals), 10853 evictions
	// store:   6144 gets, 10848 puts (339 batched flushes), 26.4 MB resident remotely
	// virtual time elapsed: 352.808059ms
}

func run() error {
	machine, err := fluidmem.NewMachine(fluidmem.MachineConfig{
		Mode:        fluidmem.ModeFluidMem,
		Backend:     fluidmem.BackendRAMCloud,
		LocalMemory: 8 << 20,  // 8 MB of local DRAM (the monitor's LRU size)
		GuestMemory: 40 << 20, // the guest sees 40 MB
		BootOS:      true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("booted: %d pages resident (%.1f MB), boot took %v of virtual time\n",
		machine.ResidentPages(), float64(machine.ResidentPages())*4/1024, machine.Now())

	// Allocate a 24 MB heap — 3× the local budget.
	heap, err := machine.Alloc("heap", 24<<20)
	if err != nil {
		return err
	}
	words := heap.Pages()
	fmt.Printf("writing %d pages (%d MB) through an %d MB window...\n",
		words, heap.Bytes>>20, 8)
	for i := 0; i < words; i++ {
		if err := machine.Write64(heap.Addr(uint64(i)*fluidmem.PageSize), uint64(i)*7+3); err != nil {
			return err
		}
	}
	fmt.Printf("reading everything back...\n")
	for i := 0; i < words; i++ {
		v, err := machine.Read64(heap.Addr(uint64(i) * fluidmem.PageSize))
		if err != nil {
			return err
		}
		if v != uint64(i)*7+3 {
			return fmt.Errorf("page %d corrupted: got %d", i, v)
		}
	}

	snap := machine.Stats() // one aggregated snapshot of every layer
	st, store := snap.Monitor, snap.Store
	fmt.Printf("\nall %d pages verified.\n", words)
	fmt.Printf("resident now: %d pages — never above the local budget\n", snap.ResidentPages)
	fmt.Printf("monitor: %d faults (%d first-touch, %d remote reads, %d steals), %d evictions\n",
		st.Faults, st.FirstTouch, st.RemoteReads, st.Steals, st.Evictions)
	fmt.Printf("store:   %d gets, %d puts (%d batched flushes), %.1f MB resident remotely\n",
		store.Gets, store.Puts, st.Flushes, float64(store.BytesStored)/(1<<20))
	fmt.Printf("virtual time elapsed: %v\n", snap.Now)
	return nil
}
