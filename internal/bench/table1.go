package bench

import (
	"fmt"
	"strings"
	"time"

	"fluidmem"
	"fluidmem/internal/core"
	"fluidmem/internal/stats"
)

// Table1Row is one code path's latency profile.
type Table1Row struct {
	CodePath string
	Avg      time.Duration
	Stdev    time.Duration
	P99      time.Duration
	Samples  int
}

// Table1Result reproduces Table I: latencies of the monitor's code paths
// during synchronous fault handling with the RAMCloud backend.
type Table1Result struct {
	Rows []Table1Row
}

// RunTable1 profiles the monitor's code paths. Per the paper, profiling runs
// with the optimisations disabled (synchronous handling) on RAMCloud.
func RunTable1(opts Options) (*Table1Result, error) {
	localBytes := uint64(8 << 20)
	wss := uint64(32 << 20)
	accesses := 20000
	if opts.Quick {
		localBytes, wss, accesses = 2<<20, 8<<20, 3000
	}
	m, err := newMonitorMachine(fluidmem.MachineConfig{
		Backend: fluidmem.BackendRAMCloud, LocalMemory: localBytes, GuestMemory: wss + wss/4, Seed: opts.Seed,
	}, func(cfg *core.Config) {
		cfg.AsyncRead = false
		cfg.AsyncWrite = false
	})
	if err != nil {
		return nil, err
	}
	if _, err := runPmbench(m, wss, accesses, 0, opts.Seed); err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}
	res := &Table1Result{}
	for _, op := range []string{
		core.OpUpdatePageCache,
		core.OpInsertPageHash,
		core.OpInsertLRUCache,
		core.OpUffdZeroPage,
		core.OpUffdRemap,
		core.OpUffdCopy,
		core.OpReadPage,
		core.OpWritePage,
	} {
		s := m.Monitor().Profiler().Sample(op)
		if s == nil {
			return nil, fmt.Errorf("table1: code path %s never exercised", op)
		}
		res.Rows = append(res.Rows, Table1Row{
			CodePath: op,
			Avg:      s.Mean(),
			Stdev:    s.Stdev(),
			P99:      s.Percentile(99),
			Samples:  s.Len(),
		})
	}
	return res, nil
}

// Render prints the paper's Table I layout.
func (r *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table I: latencies of key FluidMem code paths (RAMCloud backend, synchronous handling, units: µs)\n")
	fmt.Fprintf(&b, "%-24s %8s %8s %8s %10s\n", "Code path", "Avg", "Stdev", "99th", "samples")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %8.2f %8.2f %8.2f %10d\n",
			row.CodePath, stats.Micros(row.Avg), stats.Micros(row.Stdev), stats.Micros(row.P99), row.Samples)
	}
	return b.String()
}
