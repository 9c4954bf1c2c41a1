// Migration example: move a running VM between two hypervisors using
// post-copy migration over the shared key-value store (§VII). No page
// contents cross between the hypervisors — they are already disaggregated —
// so the handoff ships only kilobytes of page-tracking metadata, and the
// guest's memory survives bit-for-bit.
package migration_test

import (
	"fmt"
	"log"

	"fluidmem"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/ramcloud"
)

func Example() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// hypervisor-a: guest running, 4096 pages resident, 12.8 MB already in the store
	// migrating guest to hypervisor-b (post-copy over the store)...
	// hypervisor-b: guest adopted at t=183.27452ms, 0 pages resident (lazy post-copy)
	// hypervisor-b: all 6144 heap pages verified after migration
	//              6144 faults since adoption (6144 remote reads, 0 first-touch)
	// no page data travelled hypervisor-to-hypervisor; the store was the channel.
}

func run() error {
	// One RAMCloud cluster and one partition registry serve both hypervisors.
	store := ramcloud.New(ramcloud.DefaultParams(), 42)
	registry := kvstore.NewLocalRegistry()

	newHypervisor := func(id string, seed uint64, boot bool) (*fluidmem.Machine, error) {
		return fluidmem.NewMachine(fluidmem.MachineConfig{
			Mode:         fluidmem.ModeFluidMem,
			LocalMemory:  16 << 20,
			GuestMemory:  64 << 20,
			BootOS:       boot,
			SharedStore:  store,
			Registry:     registry,
			HypervisorID: id,
			Seed:         seed,
		})
	}

	src, err := newHypervisor("hypervisor-a", 1, true)
	if err != nil {
		return err
	}
	dst, err := newHypervisor("hypervisor-b", 2, false)
	if err != nil {
		return err
	}

	// The guest runs a workload on hypervisor A.
	heap, err := src.Alloc("app.heap", 24<<20)
	if err != nil {
		return err
	}
	for i := 0; i < heap.Pages(); i++ {
		if err := src.Write64(heap.Addr(uint64(i)*fluidmem.PageSize), uint64(i)*13+7); err != nil {
			return err
		}
	}
	fmt.Printf("hypervisor-a: guest running, %d pages resident, %.1f MB already in the store\n",
		src.ResidentPages(), float64(src.Stats().Store.BytesStored)/(1<<20))

	// Migrate.
	fmt.Println("migrating guest to hypervisor-b (post-copy over the store)...")
	if err := fluidmem.Migrate(src, dst); err != nil {
		return err
	}
	fmt.Printf("hypervisor-b: guest adopted at t=%v, %d pages resident (lazy post-copy)\n",
		dst.Now(), dst.ResidentPages())

	// The workload continues on B; its memory faults in from the store.
	for i := 0; i < heap.Pages(); i++ {
		v, err := dst.Read64(heap.Addr(uint64(i) * fluidmem.PageSize))
		if err != nil {
			return err
		}
		if v != uint64(i)*13+7 {
			return fmt.Errorf("page %d corrupted in migration: %d", i, v)
		}
	}
	st := dst.Stats().Monitor
	fmt.Printf("hypervisor-b: all %d heap pages verified after migration\n", heap.Pages())
	fmt.Printf("             %d faults since adoption (%d remote reads, %d first-touch)\n",
		st.Faults, st.RemoteReads, st.FirstTouch)
	fmt.Println("no page data travelled hypervisor-to-hypervisor; the store was the channel.")
	return nil
}
