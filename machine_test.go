package fluidmem

import (
	"errors"
	"testing"
	"time"

	"fluidmem/internal/graph500"
	"fluidmem/internal/vm"
)

func newFluidMachine(t *testing.T, backend Backend, localMB, guestMB int, boot bool) *Machine {
	t.Helper()
	m, err := NewMachine(MachineConfig{
		Mode:        ModeFluidMem,
		Backend:     backend,
		LocalMemory: uint64(localMB) << 20,
		GuestMemory: uint64(guestMB) << 20,
		BootOS:      boot,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newSwapMachine(t *testing.T, dev SwapDevice, localMB, guestMB int, boot bool) *Machine {
	t.Helper()
	m, err := NewMachine(MachineConfig{
		Mode:        ModeSwap,
		SwapDev:     dev,
		LocalMemory: uint64(localMB) << 20,
		GuestMemory: uint64(guestMB) << 20,
		BootOS:      boot,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMachineValidation(t *testing.T) {
	if _, err := NewMachine(MachineConfig{LocalMemory: 0, GuestMemory: 1 << 20}); err == nil {
		t.Fatal("zero local memory accepted")
	}
	if _, err := NewMachine(MachineConfig{LocalMemory: 2 << 20, GuestMemory: 1 << 20}); err == nil {
		t.Fatal("guest < local accepted")
	}
	if _, err := NewMachine(MachineConfig{Backend: "bogus", LocalMemory: 1 << 20, GuestMemory: 2 << 20}); err == nil {
		t.Fatal("bogus backend accepted")
	}
	if _, err := NewMachine(MachineConfig{Mode: ModeSwap, SwapDev: "bogus", LocalMemory: 1 << 20, GuestMemory: 2 << 20}); err == nil {
		t.Fatal("bogus swap device accepted")
	}
}

func TestFluidMemReadWriteRoundTrip(t *testing.T) {
	m := newFluidMachine(t, BackendRAMCloud, 1, 8, false)
	seg, err := m.Alloc("heap", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Write a pattern across more memory than the 1 MB local budget, then
	// read it all back: every word must survive disaggregation.
	words := seg.Pages() // one word per page
	for i := 0; i < words; i++ {
		if err := m.Write64(seg.Addr(uint64(i)*PageSize), uint64(i)*3+1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < words; i++ {
		got, err := m.Read64(seg.Addr(uint64(i) * PageSize))
		if err != nil {
			t.Fatal(err)
		}
		if got != uint64(i)*3+1 {
			t.Fatalf("word %d = %d", i, got)
		}
	}
	if m.ResidentPages() > int((1<<20)/PageSize) {
		t.Fatalf("resident %d pages exceeds local budget", m.ResidentPages())
	}
	if m.Monitor().Stats().Evictions == 0 {
		t.Fatal("workload bigger than local memory caused no evictions")
	}
}

func TestSwapMachineRoundTrip(t *testing.T) {
	m := newSwapMachine(t, SwapDRAM, 1, 8, false)
	seg, err := m.Alloc("heap", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	words := seg.Pages()
	for i := 0; i < words; i++ {
		if err := m.Write64(seg.Addr(uint64(i)*PageSize), uint64(i)+7); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < words; i++ {
		got, err := m.Read64(seg.Addr(uint64(i) * PageSize))
		if err != nil {
			t.Fatal(err)
		}
		if got != uint64(i)+7 {
			t.Fatalf("word %d = %d", i, got)
		}
	}
	if m.Swap().Stats().SwapOuts == 0 {
		t.Fatal("no swap activity despite memory pressure")
	}
}

func TestBootPopulatesOS(t *testing.T) {
	m := newFluidMachine(t, BackendDRAM, 32, 128, true)
	if m.OS() == nil {
		t.Fatal("no OS after boot")
	}
	if m.Now() <= 0 {
		t.Fatal("boot consumed no virtual time")
	}
	if m.ResidentPages() == 0 {
		t.Fatal("no resident pages after boot")
	}
}

func TestVirtualClockAdvancesMonotonically(t *testing.T) {
	m := newFluidMachine(t, BackendRAMCloud, 1, 8, false)
	seg, _ := m.Alloc("heap", 2<<20)
	prev := m.Now()
	for i := 0; i < 200; i++ {
		if err := m.Write64(seg.Addr(uint64(i%seg.Pages())*PageSize), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if m.Now() < prev {
			t.Fatal("clock went backwards")
		}
		prev = m.Now()
	}
	m.AdvanceCPU(time.Millisecond)
	if m.Now() != prev+time.Millisecond {
		t.Fatal("AdvanceCPU wrong")
	}
	m.AdvanceCPU(-time.Second)
	if m.Now() != prev+time.Millisecond {
		t.Fatal("negative AdvanceCPU should be ignored")
	}
}

func TestResizeFootprintFluidMem(t *testing.T) {
	m := newFluidMachine(t, BackendRAMCloud, 4, 32, true)
	before := m.ResidentPages()
	if before == 0 {
		t.Fatal("nothing resident after boot")
	}
	if err := m.ResizeFootprint(180); err != nil {
		t.Fatal(err)
	}
	if m.ResidentPages() > 180 {
		t.Fatalf("resident = %d after resize to 180", m.ResidentPages())
	}
	// Grow back and touch evicted memory.
	if err := m.ResizeFootprint(before); err != nil {
		t.Fatal(err)
	}
	if err := m.OSTick(50); err != nil {
		t.Fatal(err)
	}
}

func TestResizeFootprintSwapRefused(t *testing.T) {
	m := newSwapMachine(t, SwapNVMeoF, 4, 32, false)
	if err := m.ResizeFootprint(100); err == nil {
		t.Fatal("swap machine allowed footprint resize without guest cooperation")
	}
}

// TestHotplugGrowsGuest hotplugs memory into each mode's guest and writes
// and reads back every page of an allocation that only fits with it, three
// times the local memory, so hotplugged pages are evicted and faulted back.
func TestHotplugGrowsGuest(t *testing.T) {
	for _, m := range []*Machine{newFluidMachine(t, BackendRAMCloud, 1, 2, false), newSwapMachine(t, SwapNVMeoF, 1, 2, false)} {
		if _, err := m.Alloc("big", 3<<20); !errors.Is(err, vm.ErrOutOfMemory) {
			t.Fatalf("err = %v, want out of memory", err)
		}
		if err := m.Hotplug(4 << 20); err != nil {
			t.Fatal(err)
		}
		seg, err := m.Alloc("big", 3<<20)
		if err != nil {
			t.Fatal(err)
		}
		// Hotplugged memory must be usable end to end.
		for off := uint64(0); off < seg.Bytes; off += PageSize {
			if err := m.Write64(seg.Addr(off), off+99); err != nil {
				t.Fatal(err)
			}
		}
		for off := uint64(0); off < seg.Bytes; off += PageSize {
			if got, err := m.Read64(seg.Addr(off)); err != nil || got != off+99 {
				t.Fatalf("offset %#x: got %d, %v", off, got, err)
			}
		}
	}
}

// TestRefusedHotplugChangesNothing hotplugs a size that wraps past 2^64 into
// each mode's guest: it is refused, the guest keeps its size, and a later
// hotplug still lands where the first would have.
func TestRefusedHotplugChangesNothing(t *testing.T) {
	for _, m := range []*Machine{newFluidMachine(t, BackendRAMCloud, 1, 2, false), newSwapMachine(t, SwapNVMeoF, 1, 2, false)} {
		if err := m.Hotplug(^uint64(0) &^ (PageSize - 1)); err == nil {
			t.Fatal("hotplug past 2^64 accepted")
		}
		if got := m.VM().MemBytes(); got != 2<<20 {
			t.Fatalf("MemBytes = %d after a refused hotplug, want %d", got, 2<<20)
		}
		if err := m.Hotplug(1 << 20); err != nil {
			t.Fatal(err)
		}
		seg, err := m.Alloc("all", 3<<20)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Write64(seg.Addr(seg.Bytes-PageSize), 7); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGraph500ValidatesOverSwap runs a quick-scale Graph500 with every BFS
// tree validated on a machine swapping to NVMe-oF, its working set more than
// twice its local memory, so the graph lives through swap-outs and swap-ins.
func TestGraph500ValidatesOverSwap(t *testing.T) {
	const scale, local = 13, 1 << 20
	wss := graph500.MemoryBytes(scale, 16)
	if wss < 2*local {
		t.Fatalf("working set %d B is not twice local memory", wss)
	}
	m, err := NewMachine(MachineConfig{Mode: ModeSwap, SwapDev: SwapNVMeoF, LocalMemory: local, GuestMemory: 2*wss + local, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := graph500.DefaultConfig(scale)
	cfg.Roots, cfg.Validate = 3, true
	if _, _, err := graph500.Run(m.Now(), m.VM(), cfg); err != nil {
		t.Fatal(err)
	}
	if st := m.Swap().Stats(); st.SwapOuts == 0 || st.MajorFaults == 0 {
		t.Fatalf("the run never swapped: %+v", st)
	}
}

func TestProbeRequiresBoot(t *testing.T) {
	m := newFluidMachine(t, BackendDRAM, 4, 16, false)
	if _, err := m.Probe(vm.ICMPService()); err == nil {
		t.Fatal("probe without boot accepted")
	}
}

func TestTableIIIScenario(t *testing.T) {
	// The headline Table III walk: squeeze a booted FluidMem VM to 180
	// pages (SSH + ICMP respond), then 80 (ICMP only), then revive it.
	m, err := NewMachine(MachineConfig{
		Mode:        ModeFluidMem,
		Backend:     BackendRAMCloud,
		LocalMemory: 64 << 20,
		GuestMemory: 256 << 20,
		BootOS:      true,
		OSProfile:   vm.ScaledOSProfile(8000),
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ResizeFootprint(180); err != nil {
		t.Fatal(err)
	}
	ssh, err := m.Probe(vm.SSHService())
	if err != nil {
		t.Fatal(err)
	}
	if !ssh.Responded {
		t.Fatalf("SSH at 180 pages: %+v", ssh)
	}
	if err := m.ResizeFootprint(80); err != nil {
		t.Fatal(err)
	}
	ssh80, err := m.Probe(vm.SSHService())
	if err != nil {
		t.Fatal(err)
	}
	if ssh80.Responded {
		t.Fatal("SSH responded at 80 pages")
	}
	icmp80, err := m.Probe(vm.ICMPService())
	if err != nil {
		t.Fatal(err)
	}
	if !icmp80.Responded {
		t.Fatal("ICMP failed at 80 pages")
	}
	// Revive.
	if err := m.ResizeFootprint(4096); err != nil {
		t.Fatal(err)
	}
	revived, err := m.Probe(vm.SSHService())
	if err != nil {
		t.Fatal(err)
	}
	if !revived.Responded {
		t.Fatal("VM not revived by increasing footprint")
	}
}

func TestBalloonVsFluidMemFloor(t *testing.T) {
	// The balloon bottoms out at its driver floor; FluidMem goes far lower.
	m := newFluidMachine(t, BackendRAMCloud, 64, 256, true)
	bal := m.Balloon()
	bal.FloorPages = 2000 // scaled-down analogue of 20480
	got, _ := bal.InflateTo(m.Now(), 0)
	if err := m.ResizeFootprint(180); err != nil {
		t.Fatal(err)
	}
	if m.ResidentPages() > 180 {
		t.Fatalf("FluidMem footprint %d", m.ResidentPages())
	}
	if got <= 180 {
		t.Fatalf("balloon reached %d pages; it must not beat FluidMem's floor", got)
	}
}

func TestSeededDeterminism(t *testing.T) {
	run := func() (time.Duration, uint64) {
		m := newFluidMachine(t, BackendRAMCloud, 1, 8, false)
		seg, _ := m.Alloc("heap", 4<<20)
		for i := 0; i < 500; i++ {
			if err := m.Write64(seg.Addr(uint64(i%seg.Pages())*PageSize), uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return m.Now(), m.Monitor().Stats().Evictions
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("runs diverged: %v/%d vs %v/%d", t1, e1, t2, e2)
	}
}

func TestDrainQuiescesWriteback(t *testing.T) {
	m := newFluidMachine(t, BackendRAMCloud, 1, 8, false)
	seg, _ := m.Alloc("heap", 4<<20)
	for i := 0; i < seg.Pages(); i++ {
		if err := m.Write64(seg.Addr(uint64(i)*PageSize), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if m.Monitor().WriteListLen() != 0 {
		t.Fatal("write list not drained")
	}
}

func TestSwapDefaultsApplied(t *testing.T) {
	m, err := NewMachine(MachineConfig{
		Mode:        ModeSwap,
		LocalMemory: 1 << 20,
		GuestMemory: 4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Swap() == nil || m.Monitor() != nil || m.Store() != nil {
		t.Fatal("swap machine wired wrong")
	}
}
