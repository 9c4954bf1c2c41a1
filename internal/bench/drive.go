package bench

import (
	"fmt"
	"time"

	"fluidmem"
	"fluidmem/internal/clock"
	"fluidmem/internal/stats"
	"fluidmem/internal/vm"
	"fluidmem/internal/workload/pmbench"
)

// The fault-window experiments (Table II, chaos, cluster) populate a
// 2048-page working set over 512 pages of local DRAM: 4× the LRU, so
// steady-state accesses to other pages always fault and evict.
const (
	windowLocalBytes = 2 << 20
	windowWSSBytes   = 8 << 20
	windowGuestBytes = windowWSSBytes + windowWSSBytes/4
)

// runPmbench runs pmbench's §VI-B recipe on m: a warm-up pass filling a
// wssBytes working set to density, then accesses uniform-random 4 KB
// accesses at 50 % reads (Fig. 3, Table I, A1–A5).
func runPmbench(m *fluidmem.Machine, wssBytes uint64, accesses int, density float64, seed uint64) (*pmbench.Result, error) {
	cfg := pmbench.DefaultConfig(wssBytes)
	cfg.Duration = time.Hour // bounded by MaxAccesses instead
	cfg.MaxAccesses = accesses
	cfg.FillDensity = density
	cfg.Seed = seed
	res, _, err := pmbench.Run(m.Now(), m.VM(), cfg)
	return res, err
}

// populate allocates a wssBytes working set on m and writes every page once,
// so what follows measures the store path, not first-touch zero-fill (Table
// II, A6, chaos, cluster).
func populate(m *fluidmem.Machine, wssBytes uint64) (*vm.Segment, int, error) {
	seg, err := m.Alloc("wss", wssBytes)
	if err != nil {
		return nil, 0, err
	}
	pages := seg.Pages()
	for i := 0; i < pages; i++ {
		if err := m.Write64(seg.Addr(uint64(i)*vm.PageSize), uint64(i)); err != nil {
			return nil, 0, err
		}
	}
	return seg, pages, nil
}

// measurePhase is one fault window over a populated working set (chaos,
// cluster): it registers a fresh latency sink, then runs a random 70/30
// read/write mix until `faults` store-read faults land in it, so the row
// summarises exactly this window.
func measurePhase(phase string, m *fluidmem.Machine, seg *vm.Segment, pages, faults int, seed uint64) (ClusterRow, error) {
	rng := clock.NewRand(seed)
	window := stats.NewSample(faults * 2)
	m.Monitor().SetFaultLatencySink(window.Add)
	for window.Len() < faults {
		page := rng.Intn(pages)
		addr := seg.Addr(uint64(page) * vm.PageSize)
		if rng.Float64() < 0.3 {
			if err := m.Write64(addr, uint64(page)); err != nil {
				return ClusterRow{}, fmt.Errorf("bench %s: write: %w", phase, err)
			}
		} else if _, err := m.Read64(addr); err != nil {
			return ClusterRow{}, fmt.Errorf("bench %s: read: %w", phase, err)
		}
	}
	return ClusterRow{
		Phase:  phase,
		Faults: window.Len(),
		Mean:   window.Mean(),
		P50:    window.Percentile(50),
		P99:    window.Percentile(99),
	}, nil
}

// CyclicDrive is the multi-tenant host workload of the arbiter and market
// experiments and of fluidmemd's drive command. It allocates a "ws" segment
// of pages[i] pages in tenant i's guest and returns the drive over them.
// Each call issues ops more operations round-robin across the tenants:
// operation k, counted from the drive's first, touches page k mod spans[i]
// of tenant i's segment and writes on every third k. A caller shifts a
// working set between calls by passing other spans, each at most the
// tenant's segment size.
func CyclicDrive(tenants []*fluidmem.Tenant, pages []int) (func(ops int, spans []int) error, error) {
	base := make([]uint64, len(tenants))
	for i, t := range tenants {
		seg, err := t.Machine().Alloc("ws", uint64(pages[i])*fluidmem.PageSize)
		if err != nil {
			return nil, err
		}
		base[i] = seg.Addr(0)
	}
	next := 0
	return func(ops int, spans []int) error {
		for end := next + ops; next < end; next++ {
			for i, t := range tenants {
				addr := base[i] + uint64(next%spans[i])*fluidmem.PageSize
				if _, err := t.Touch(addr, next%3 == 0); err != nil {
					return fmt.Errorf("%s op %d: %w", t.ID(), next, err)
				}
			}
		}
		return nil
	}, nil
}
