package bench

import (
	"fmt"
	"strings"

	"fluidmem/internal/graph500"
)

// Fig4Config scales the Graph500 experiment. The paper runs scale factors
// 20–23 (WSS 60%→480% of 1 GB local DRAM) on 2-vCPU guests; the scaled
// default preserves those ratios with smaller graphs (DESIGN.md §5).
type Fig4Config struct {
	// LocalBytes is the guest's local DRAM budget.
	LocalBytes uint64
	// Scales lists the Graph500 scale factors to sweep.
	Scales []int
	// Roots is BFS traversals per configuration (the paper uses 64).
	Roots int
	// OSTouchesPerRoot models background guest-OS activity between
	// traversals.
	OSTouchesPerRoot int
	Seed             uint64
}

// DefaultFig4Config preserves the paper's WSS/DRAM ratios: with 16 MB local
// DRAM, scales 15–18 give ≈55%, 110%, 220%, 440% (the paper's 60–480%).
func DefaultFig4Config(opts Options) Fig4Config {
	cfg := Fig4Config{
		LocalBytes:       16 << 20,
		Scales:           []int{15, 16, 17, 18},
		Roots:            8,
		OSTouchesPerRoot: 400,
		Seed:             opts.Seed,
	}
	if opts.Quick {
		cfg.LocalBytes = 4 << 20
		cfg.Scales = []int{13, 14}
		cfg.Roots = 3
		cfg.OSTouchesPerRoot = 100
	}
	return cfg
}

// Fig4Cell is one (system, scale) harmonic-mean TEPS measurement.
type Fig4Cell struct {
	System     string
	Scale      int
	WSSPercent float64
	TEPS       float64
	// Result is the cell's whole Graph500 run; Render reads its edge count.
	Result *graph500.Result
}

// Fig4Result reproduces Figure 4.
type Fig4Result struct {
	Config Fig4Config
	Cells  []Fig4Cell
}

// RunFig4 sweeps Graph500 scale factors across all six systems.
func RunFig4(opts Options) (*Fig4Result, error) {
	cfg := DefaultFig4Config(opts)
	out := &Fig4Result{Config: cfg}
	for _, scale := range cfg.Scales {
		wss := graph500.MemoryBytes(scale, 16)
		for _, sys := range Systems() {
			teps, res, err := runFig4Cell(sys, cfg, scale, wss)
			if err != nil {
				return nil, fmt.Errorf("fig4 %s scale %d: %w", sys.Label, scale, err)
			}
			out.Cells = append(out.Cells, Fig4Cell{
				System:     sys.Label,
				Scale:      scale,
				WSSPercent: 100 * float64(wss) / float64(cfg.LocalBytes),
				TEPS:       teps,
				Result:     res,
			})
		}
	}
	return out, nil
}

func runFig4Cell(sys SystemConfig, cfg Fig4Config, scale int, wss uint64) (float64, *graph500.Result, error) {
	// Guest memory: graph + OS + slack. The paper's FluidMem guests get
	// 1 GB local + 4 GB hotplug; swap guests get 1 GB + swap space. Our VM
	// abstraction sizes the address space to fit the workload either way.
	guestBytes := wss*2 + cfg.LocalBytes
	m, err := newMachine(sys, cfg.LocalBytes, guestBytes, true, cfg.Seed)
	if err != nil {
		return 0, nil, err
	}
	gcfg := graph500.DefaultConfig(scale)
	gcfg.Roots = cfg.Roots
	gcfg.Seed = cfg.Seed

	// Interleave background OS activity with the benchmark by ticking the
	// OS before the run and between measurement phases. (The generator and
	// construction dominate wall time; BFS interleaving is approximated by
	// the OS hot set competing for residency.)
	if err := m.OSTick(cfg.OSTouchesPerRoot); err != nil {
		return 0, nil, err
	}
	res, _, err := graph500.Run(m.Now(), m.VM(), gcfg)
	if err != nil {
		return 0, nil, err
	}
	if err := m.OSTick(cfg.OSTouchesPerRoot); err != nil {
		return 0, nil, err
	}
	return res.HarmonicMeanTEPS, res, nil
}

// Render prints the figure as one table per scale factor, like the paper's
// four subplots.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: Graph500 harmonic-mean TEPS (local DRAM %d MB, %d BFS roots)\n",
		r.Config.LocalBytes>>20, r.Config.Roots)
	for _, scale := range r.Config.Scales {
		wssPct := 0.0
		for _, c := range r.Cells {
			if c.Scale == scale {
				wssPct = c.WSSPercent
				break
			}
		}
		fmt.Fprintf(&b, "\n(scale %d, WSS %.0f%% of DRAM)\n", scale, wssPct)
		fmt.Fprintf(&b, "%-20s %14s %12s\n", "System", "TEPS (M/s)", "edges")
		for _, c := range r.Cells {
			if c.Scale != scale {
				continue
			}
			fmt.Fprintf(&b, "%-20s %14.2f %12d\n", c.System, c.TEPS/1e6, c.Result.Edges)
		}
	}
	return b.String()
}
