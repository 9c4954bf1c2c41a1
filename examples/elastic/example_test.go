// Elastic example: walk a booted VM's footprint down to near zero and back —
// the paper's Table III demonstration of full memory disaggregation. The VM
// stays alive with 180 pages (SSH still answers), keeps answering pings at
// 80 pages, and snaps back to full responsiveness the moment the footprint
// is raised. A balloon driver, the guest-cooperative alternative, bottoms
// out three orders of magnitude higher.
package elastic_test

import (
	"fmt"
	"log"

	"fluidmem"
	"fluidmem/internal/vm"
)

func Example() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// booted: 15999 pages resident (62.5 MB)
	//
	// after boot                             footprint  15999 pages (  62.496 MB): ssh responds   icmp responds
	// balloon fully inflated (floor 4043)    footprint   4393 pages (  17.160 MB): ssh responds   icmp responds
	// FluidMem footprint = 1024 pages        footprint   1024 pages (   4.000 MB): ssh responds   icmp responds
	// FluidMem footprint = 180 pages         footprint    180 pages (   0.703 MB): ssh responds   icmp responds
	// FluidMem footprint = 80 pages          footprint     80 pages (   0.312 MB): ssh times out  icmp responds
	// revived (footprint raised)             footprint    350 pages (   1.367 MB): ssh responds   icmp responds
	//
	// remote store now holds 17.2 MB of this VM's pages; virtual time 10.602645391s
}

func run() error {
	machine, err := fluidmem.NewMachine(fluidmem.MachineConfig{
		Mode:        fluidmem.ModeFluidMem,
		Backend:     fluidmem.BackendRAMCloud,
		LocalMemory: 128 << 20,
		GuestMemory: 512 << 20,
		BootOS:      true,
		OSProfile:   vm.ScaledOSProfile(16000),
	})
	if err != nil {
		return err
	}
	fmt.Printf("booted: %d pages resident (%.1f MB)\n\n",
		machine.ResidentPages(), float64(machine.ResidentPages())*4/1024)

	probe := func(note string) error {
		ssh, err := machine.Probe(vm.SSHService())
		if err != nil {
			return err
		}
		icmp, err := machine.Probe(vm.ICMPService())
		if err != nil {
			return err
		}
		verdict := func(r vm.ProbeResult) string {
			switch {
			case r.Deadlocked:
				return "deadlocked"
			case r.Responded:
				return "responds"
			default:
				return "times out"
			}
		}
		fmt.Printf("%-38s footprint %6d pages (%8.3f MB): ssh %-10s icmp %s\n",
			note, machine.ResidentPages(), float64(machine.ResidentPages())*4/1024,
			verdict(ssh), verdict(icmp))
		return nil
	}

	if err := probe("after boot"); err != nil {
		return err
	}

	// The balloon, for contrast: it cannot get below its driver floor.
	balloon := machine.Balloon()
	balloon.FloorPages = 4000
	reached, _ := balloon.InflateTo(machine.Now(), 0)
	if err := probe(fmt.Sprintf("balloon fully inflated (floor %d)", reached)); err != nil {
		return err
	}

	// FluidMem's LRU resize goes much further.
	for _, pages := range []int{1024, 180, 80} {
		if err := machine.ResizeFootprint(pages); err != nil {
			return err
		}
		if err := probe(fmt.Sprintf("FluidMem footprint = %d pages", pages)); err != nil {
			return err
		}
	}

	// Revive: raise the limit and the VM instantly returns to normal.
	if err := machine.ResizeFootprint(32768); err != nil {
		return err
	}
	if err := probe("revived (footprint raised)"); err != nil {
		return err
	}
	fmt.Printf("\nremote store now holds %.1f MB of this VM's pages; virtual time %v\n",
		float64(machine.Store().Stats().BytesStored)/(1<<20), machine.Now())
	return nil
}
