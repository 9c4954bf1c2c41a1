package bench

import (
	"fmt"
	"strings"

	"fluidmem"
	"fluidmem/internal/vm"
)

// Table3Row is one footprint-minimisation scenario.
type Table3Row struct {
	Scenario       string
	FootprintPages int
	FootprintMB    float64
	SSH            bool
	ICMP           bool
	Deadlocked     bool
	Revived        bool
	RevivedNA      bool // "N/A" rows in the paper (no squeeze to revive from)
}

// Table3Result reproduces Table III: the effects of reducing a VM's
// footprint to near zero.
type Table3Result struct {
	Rows []Table3Row
}

// RunTable3 walks the paper's five scenarios. Unlike the other experiments
// this one runs at full scale: the boot footprint is the paper's 81042 pages.
func RunTable3(opts Options) (*Table3Result, error) {
	res := &Table3Result{}
	profile := vm.DefaultOSProfile()
	if opts.Quick {
		profile = vm.ScaledOSProfile(8000)
	}
	// Machine big enough for the full OS: LRU capacity starts above the
	// boot footprint so "after startup" shows the natural resident size.
	newVM := func(virt vm.VirtMode) (*fluidmem.Machine, error) {
		return fluidmem.NewMachine(fluidmem.MachineConfig{
			Mode:        fluidmem.ModeFluidMem,
			Backend:     fluidmem.BackendRAMCloud,
			LocalMemory: uint64(profile.TotalPages()*2) * vm.PageSize,
			GuestMemory: uint64(profile.TotalPages()*8) * vm.PageSize,
			BootOS:      true,
			OSProfile:   profile,
			Virt:        virt,
			Seed:        opts.Seed,
		})
	}

	probeBoth := func(m *fluidmem.Machine) (ssh, icmp, deadlocked bool, err error) {
		sshRes, err := m.Probe(vm.SSHService())
		if err != nil {
			return false, false, false, err
		}
		icmpRes, err := m.Probe(vm.ICMPService())
		if err != nil {
			return false, false, false, err
		}
		return sshRes.Responded, icmpRes.Responded, sshRes.Deadlocked || icmpRes.Deadlocked, nil
	}

	// revives reports whether raising the footprint restores SSH service.
	revives := func(m *fluidmem.Machine) (bool, error) {
		if err := m.ResizeFootprint(profile.TotalPages() * 2); err != nil {
			return false, err
		}
		ssh, err := m.Probe(vm.SSHService())
		if err != nil {
			return false, err
		}
		return ssh.Responded, nil
	}

	addRow := func(scenario string, pages int, ssh, icmp, deadlocked, revived, revivedNA bool) {
		res.Rows = append(res.Rows, Table3Row{
			Scenario:       scenario,
			FootprintPages: pages,
			FootprintMB:    float64(pages) * vm.PageSize / (1 << 20),
			SSH:            ssh,
			ICMP:           icmp,
			Deadlocked:     deadlocked,
			Revived:        revived,
			RevivedNA:      revivedNA,
		})
	}

	// Row 1: after startup — the natural boot footprint.
	m, err := newVM(vm.VirtKVM)
	if err != nil {
		return nil, err
	}
	ssh, icmp, _, err := probeBoth(m)
	if err != nil {
		return nil, err
	}
	addRow("After startup", m.ResidentPages(), ssh, icmp, false, false, true)

	// Row 2: maximum balloon inflation (driver floor 20480 pages).
	m, err = newVM(vm.VirtKVM)
	if err != nil {
		return nil, err
	}
	bal := m.Balloon()
	if opts.Quick {
		bal.FloorPages = profile.TotalPages() / 4
	}
	balloonPages, _ := bal.InflateTo(m.Now(), 0)
	ssh, icmp, _, err = probeBoth(m)
	if err != nil {
		return nil, err
	}
	addRow("Max VM balloon size", balloonPages, ssh, icmp, false, false, true)

	// Rows 3–4: FluidMem LRU squeeze under KVM.
	for _, pages := range []int{180, 80} {
		m, err = newVM(vm.VirtKVM)
		if err != nil {
			return nil, err
		}
		if err := m.ResizeFootprint(pages); err != nil {
			return nil, err
		}
		ssh, icmp, deadlocked, err := probeBoth(m)
		if err != nil {
			return nil, err
		}
		revived, err := revives(m)
		if err != nil {
			return nil, err
		}
		addRow(fmt.Sprintf("FluidMem (KVM) %d pages", pages), pages, ssh, icmp, deadlocked, revived, false)
	}

	// Row 5: one page under full virtualisation.
	m, err = newVM(vm.VirtFull)
	if err != nil {
		return nil, err
	}
	if err := m.ResizeFootprint(1); err != nil {
		return nil, err
	}
	ssh, icmp, deadlocked, err := probeBoth(m)
	if err != nil {
		return nil, err
	}
	revived, err := revives(m)
	if err != nil {
		return nil, err
	}
	addRow("FluidMem (full virtualization) 1 page", 1, ssh, icmp, deadlocked, revived, false)

	return res, nil
}

// Render prints the paper's Table III layout.
func (r *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table III: effects of reducing VM footprint\n")
	fmt.Fprintf(&b, "%-40s %10s %10s %6s %6s %8s\n",
		"Scenario", "pages", "MB", "SSH", "ICMP", "Revived")
	yn := func(v bool) string {
		if v {
			return "Yes"
		}
		return "No"
	}
	for _, row := range r.Rows {
		revived := yn(row.Revived)
		if row.RevivedNA {
			revived = "N/A"
		}
		fmt.Fprintf(&b, "%-40s %10d %10.3f %6s %6s %8s\n",
			row.Scenario, row.FootprintPages, row.FootprintMB, yn(row.SSH), yn(row.ICMP), revived)
	}
	return b.String()
}
