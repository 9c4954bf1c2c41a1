package bench

import (
	"fmt"
	"strings"
	"time"

	"fluidmem"
	"fluidmem/internal/clock"
	"fluidmem/internal/core"
	"fluidmem/internal/stats"
	"fluidmem/internal/vm"
)

// Table2Opt names one optimisation level (a row of Table II).
type Table2Opt struct {
	Label      string
	AsyncRead  bool
	AsyncWrite bool
}

// Table2Opts is the paper's four optimisation levels.
func Table2Opts() []Table2Opt {
	return []Table2Opt{
		{Label: "Default"},
		{Label: "Async Read", AsyncRead: true},
		{Label: "Async Write", AsyncWrite: true},
		{Label: "Async Read/Write", AsyncRead: true, AsyncWrite: true},
	}
}

// Table2Cell is one measured average.
type Table2Cell struct {
	Opt        string
	Backend    string
	Sequential time.Duration
	Random     time.Duration
}

// Table2Result reproduces Table II: average fault latency by optimisation,
// backend, and access pattern, measured from the application (the paper's
// libuserfault test program, no virtualisation layer).
type Table2Result struct {
	Cells []Table2Cell
}

// RunTable2 measures all optimisation combinations.
func RunTable2(opts Options) (*Table2Result, error) {
	faults := 6000
	if opts.Quick {
		faults = 1200
	}
	res := &Table2Result{}
	for _, opt := range Table2Opts() {
		for _, backend := range []fluidmem.Backend{fluidmem.BackendDRAM, fluidmem.BackendRAMCloud} {
			seq, err := runTable2Cell(backend, opt, false, faults, opts.Seed)
			if err != nil {
				return nil, err
			}
			rnd, err := runTable2Cell(backend, opt, true, faults, opts.Seed)
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, Table2Cell{
				Opt:        opt.Label,
				Backend:    string(backend),
				Sequential: seq,
				Random:     rnd,
			})
		}
	}
	return res, nil
}

// runTable2Cell measures the average fault latency for one configuration:
// after the populate pass, reads in page order or at random until `faults`
// store-read faults have been timed.
func runTable2Cell(backend fluidmem.Backend, opt Table2Opt, random bool, faults int, seed uint64) (time.Duration, error) {
	m, err := newMonitorMachine(fluidmem.MachineConfig{
		Backend: backend, LocalMemory: windowLocalBytes, GuestMemory: windowGuestBytes, Seed: seed,
	}, func(cfg *core.Config) {
		cfg.AsyncRead = opt.AsyncRead
		cfg.AsyncWrite = opt.AsyncWrite
	})
	if err != nil {
		return 0, err
	}
	seg, pages, err := populate(m, windowWSSBytes)
	if err != nil {
		return 0, err
	}
	lat := stats.NewSample(faults)
	m.Monitor().SetFaultLatencySink(lat.Add)
	rng := clock.NewRand(seed + 77)
	for next := 0; lat.Len() < faults; next = (next + 1) % pages {
		page := next
		if random {
			page = rng.Intn(pages)
		}
		if _, err := m.Read64(seg.Addr(uint64(page) * vm.PageSize)); err != nil {
			return 0, err
		}
	}
	return lat.Mean(), nil
}

// Render prints the paper's Table II layout.
func (r *Table2Result) Render() string {
	var b strings.Builder
	b.WriteString("Table II: average fault latency by optimisation (application-measured, units: µs)\n")
	fmt.Fprintf(&b, "%-18s | %-10s %-10s | %-10s %-10s\n", "", "DRAM seq", "DRAM rnd", "RC seq", "RC rnd")
	for _, opt := range Table2Opts() {
		var dram, rc Table2Cell
		for _, c := range r.Cells {
			if c.Opt != opt.Label {
				continue
			}
			if c.Backend == "dram" {
				dram = c
			} else {
				rc = c
			}
		}
		fmt.Fprintf(&b, "%-18s | %-10s %-10s | %-10s %-10s\n", opt.Label,
			microseconds(dram.Sequential), microseconds(dram.Random),
			microseconds(rc.Sequential), microseconds(rc.Random))
	}
	return b.String()
}
