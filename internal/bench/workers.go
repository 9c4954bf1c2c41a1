package bench

import (
	"fmt"
	"strings"
	"time"

	"fluidmem/internal/core"
	"fluidmem/internal/kvstore/ramcloud"
)

// WorkersRow is one measured point of the fault-pipeline scaling curve.
type WorkersRow struct {
	// Workers is the monitor's fault-pipeline width.
	Workers int
	// Faults is store-resolved fault traffic in the measured phase.
	Faults uint64
	// Elapsed is virtual time for the measured phase across all streams.
	Elapsed time.Duration
	// Throughput is faults per virtual second.
	Throughput float64
	// MultiGets and BatchedGets show the MultiGet amortisation at work:
	// BatchedGets is the number of per-key reads those batches carried.
	MultiGets, BatchedGets uint64
}

// WorkersResult is the worker-scaling experiment: N guest fault streams over
// one monitor, at increasing pipeline widths, with batched readahead
// (MultiGet) folding each demand read and its prefetch window into one
// amortised round trip. The paper's §V-B multi-threaded fault handler is the
// mechanism; this table shows the payoff — fault throughput rising
// monotonically with workers while the shardtest oracle separately proves
// the logical behaviour never changes.
type WorkersResult struct {
	Rows []WorkersRow
}

// WorkerCounts is the swept pipeline width.
func WorkerCounts() []int { return []int{1, 2, 4, 8} }

const workersBase = 0x7d00_0000_0000

// RunWorkers measures the scaling curve.
func RunWorkers(opts Options) (*WorkersResult, error) {
	scans := 6
	if opts.Quick {
		scans = 3
	}
	res := &WorkersResult{}
	for _, workers := range WorkerCounts() {
		row, err := runWorkersRow(workers, scans, opts.Seed)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// runWorkersRow measures pipeline capacity under offered load (replay.run):
// elapsed time measures how fast the pipeline as a whole retires faults.
// Demand addresses stride by PrefetchPages+1 pages, so every fault's MultiGet
// pulls in exactly the pages the scan will touch next — the amortised round
// trip the MultiGets column counts.
func runWorkersRow(workers, scans int, seed uint64) (*WorkersRow, error) {
	const totalPages = 1536
	const capacity = 256 // well under totalPages: every scan misses and evicts
	const prefetch = 4
	const stride = prefetch + 1

	store := ramcloud.New(ramcloud.DefaultParams(), seed+uint64(workers))
	cfg := core.DefaultConfig(store, capacity)
	cfg.Workers = workers
	cfg.PrefetchPages = prefetch
	cfg.Seed = seed
	r, err := newReplay("bench-workers", cfg, workersBase, totalPages)
	if err != nil {
		return nil, fmt.Errorf("workers=%d: %w", workers, err)
	}

	// Measured phase: strided read scans of the whole region.
	var stream []replayOp
	for scan := 0; scan < scans; scan++ {
		for p := 0; p < totalPages; p += stride {
			stream = append(stream, replayOp{addr: workersBase + uint64(p)*core.PageSize})
		}
	}
	faultsBefore := r.m.Stats().Faults
	storeBefore := store.Stats()
	finish, err := r.run(stream)
	if err != nil {
		return nil, fmt.Errorf("workers=%d: %w", workers, err)
	}

	elapsed := finish - r.start
	st := store.Stats()
	row := &WorkersRow{
		Workers:     workers,
		Faults:      r.m.Stats().Faults - faultsBefore,
		Elapsed:     elapsed,
		MultiGets:   st.MultiGets - storeBefore.MultiGets,
		BatchedGets: st.Gets - storeBefore.Gets,
	}
	if elapsed > 0 {
		row.Throughput = float64(row.Faults) / elapsed.Seconds()
	}
	return row, nil
}

// Render prints the scaling table.
func (r *WorkersResult) Render() string {
	var b strings.Builder
	b.WriteString("Worker scaling — offered-load fault pipeline, batched readahead (MultiGet), RAMCloud\n")
	fmt.Fprintf(&b, "%-8s %10s %12s %14s %10s %12s\n",
		"workers", "faults", "elapsed", "faults/sec", "multigets", "batched-gets")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8d %10d %12v %14.0f %10d %12d\n",
			row.Workers, row.Faults, row.Elapsed.Round(time.Microsecond),
			row.Throughput, row.MultiGets, row.BatchedGets)
	}
	return b.String()
}
