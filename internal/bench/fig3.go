package bench

import (
	"fmt"
	"strings"

	"fluidmem/internal/stats"
	"fluidmem/internal/workload/pmbench"
)

// Fig3Config scales the Figure 3 experiment. The paper: 1 GB local DRAM, a
// 4 GB pmbench working set (plus hotplug to 5 GB), 100 s of 4 KB accesses at
// a 50% read ratio. The scaled default preserves the 4:1 WSS-to-DRAM ratio.
type Fig3Config struct {
	LocalBytes uint64
	WSSBytes   uint64
	Accesses   int
	Seed       uint64
}

// DefaultFig3Config returns the scaled recipe (16 MB local, 64 MB WSS).
func DefaultFig3Config(opts Options) Fig3Config {
	cfg := Fig3Config{
		LocalBytes: 16 << 20,
		WSSBytes:   64 << 20,
		Accesses:   40000,
		Seed:       opts.Seed,
	}
	if opts.Quick {
		cfg.LocalBytes = 2 << 20
		cfg.WSSBytes = 8 << 20
		cfg.Accesses = 4000
	}
	return cfg
}

// Fig3Line is one backend's latency distribution.
type Fig3Line struct {
	System string
	Result *pmbench.Result
}

// Fig3Result reproduces Figure 3: per-system page-fault latency CDFs.
type Fig3Result struct {
	Config Fig3Config
	Lines  []Fig3Line
}

// RunFig3 measures pmbench latency distributions across all six systems.
func RunFig3(opts Options) (*Fig3Result, error) {
	cfg := DefaultFig3Config(opts)
	out := &Fig3Result{Config: cfg}
	for _, sys := range Systems() {
		// Guest memory: WSS plus slack for allocator metadata.
		m, err := newMachine(sys, cfg.LocalBytes, cfg.WSSBytes+cfg.WSSBytes/4, false, cfg.Seed)
		if err != nil {
			return nil, err
		}
		res, err := runPmbench(m, cfg.WSSBytes, cfg.Accesses, 0, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("fig3 %s: %w", sys.Label, err)
		}
		out.Lines = append(out.Lines, Fig3Line{System: sys.Label, Result: res})
	}
	return out, nil
}

// Render prints the figure as per-system CDF summaries plus the average
// latencies the paper reports in each subplot caption.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: pmbench latency CDFs (WSS %d MB over %d MB local DRAM, %d accesses)\n",
		r.Config.WSSBytes>>20, r.Config.LocalBytes>>20, r.Config.Accesses)
	fmt.Fprintf(&b, "%-20s %10s %10s %10s %10s %10s %12s\n",
		"System", "avg µs", "p50 µs", "p90 µs", "p99 µs", "read µs", "write µs")
	for _, line := range r.Lines {
		s := line.Result.Latencies
		fmt.Fprintf(&b, "%-20s %10s %10s %10s %10s %10s %12s\n",
			line.System,
			microseconds(s.Mean()),
			microseconds(s.Percentile(50)),
			microseconds(s.Percentile(90)),
			microseconds(s.Percentile(99)),
			microseconds(line.Result.ReadLatencies.Mean()),
			microseconds(line.Result.WriteLatencies.Mean()))
	}
	b.WriteString("\nCDF detail (fraction of faults at or below latency):\n")
	for _, line := range r.Lines {
		b.WriteString(stats.RenderCDFASCII(line.System, line.Result.Latencies, 40))
	}
	return b.String()
}
