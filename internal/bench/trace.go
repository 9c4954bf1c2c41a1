package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"fluidmem/internal/core"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/trace"
)

// TraceRow is one per-phase fault-latency histogram row in virtual
// nanoseconds, per worker or merged across workers (Worker == -1).
type TraceRow struct {
	Phase  string `json:"phase"`
	Worker int    `json:"worker"`
	Count  uint64 `json:"count"`
	P50ns  int64  `json:"p50_ns"`
	P90ns  int64  `json:"p90_ns"`
	P99ns  int64  `json:"p99_ns"`
	MaxNs  int64  `json:"max_ns"`
}

// TraceResult is the fault-latency breakdown experiment: the full §V-B
// monitor replays a mixed workload with the virtual-time tracer attached,
// then reports per-phase latency percentiles — the decomposition behind a
// Fig.5-style latency figure, with the end-to-end FAULT distribution split
// by resolution path (first_touch / read / batched_read / steal / tier) and
// by pipeline stage (store ops, UFFD ops, eviction, flushes).
type TraceResult struct {
	Pages    int    `json:"pages"`
	Capacity int    `json:"capacity"`
	Ops      int    `json:"ops"`
	Workers  int    `json:"workers"`
	Seed     uint64 `json:"seed"`
	Events   int    `json:"events"`
	// Digest is the logical event-sequence digest: the same seed must
	// reproduce the same value on every run and worker count (the
	// shardtest oracle enforces the latter).
	Digest uint64     `json:"logical_digest"`
	Rows   []TraceRow `json:"rows"`

	tr *trace.Tracer
}

// RunTrace replays the write-back bench's offered-load shape against the
// fully optimised monitor with tracing on and reports the latency breakdown.
func RunTrace(opts Options) (*TraceResult, error) {
	pages, capacity, ops := 1024, 192, 4096
	if opts.Quick {
		pages, capacity, ops = 256, 48, 1024
	}
	const workers = 4

	tr := trace.New(true)
	store := ramcloud.New(ramcloud.DefaultParams(), opts.Seed+101)
	cfg := core.DefaultConfig(kvstore.Instrumented(store, tr), capacity)
	cfg.Workers = workers
	cfg.Seed = opts.Seed
	cfg.ElideZeroPages = true
	cfg.CleanPageDrop = true
	cfg.PrefetchPages = 4
	cfg.Trace = tr
	r, err := newReplay("bench-trace", cfg, writebackBase, pages)
	if err != nil {
		return nil, err
	}
	if _, err := r.run(mixedStream(opts.Seed, writebackBase, pages, ops)); err != nil {
		return nil, err
	}

	res := &TraceResult{
		Pages: pages, Capacity: capacity, Ops: ops,
		Workers: workers, Seed: opts.Seed,
		Events: len(tr.Events()),
		Digest: tr.LogicalDigest(),
		tr:     tr,
	}
	for _, ph := range tr.Snapshot() {
		res.Rows = append(res.Rows, TraceRow{
			Phase:  ph.Phase,
			Worker: ph.Worker,
			Count:  ph.Count,
			P50ns:  ph.P50.Nanoseconds(),
			P90ns:  ph.P90.Nanoseconds(),
			P99ns:  ph.P99.Nanoseconds(),
			MaxNs:  ph.Max.Nanoseconds(),
		})
	}
	return res, nil
}

// WriteChromeTrace emits the run's full event log in Chrome trace event
// format (the fluidmem-bench -trace flag).
func (r *TraceResult) WriteChromeTrace(w io.Writer) error {
	return r.tr.WriteChromeTrace(w)
}

// Render prints the merged (across-workers) latency breakdown; per-worker
// rows stay in the JSON artifact.
func (r *TraceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault-latency breakdown — %d ops over %d pages, capacity %d, %d workers, RAMCloud, %d events (digest %#x)\n",
		r.Ops, r.Pages, r.Capacity, r.Workers, r.Events, r.Digest)
	fmt.Fprintf(&b, "%-22s %9s %12s %12s %12s %12s\n", "phase", "count", "p50", "p90", "p99", "max")
	for _, row := range r.Rows {
		if row.Worker != trace.MergedWorker {
			continue
		}
		fmt.Fprintf(&b, "%-22s %9d %12v %12v %12v %12v\n",
			row.Phase, row.Count,
			time.Duration(row.P50ns), time.Duration(row.P90ns),
			time.Duration(row.P99ns), time.Duration(row.MaxNs))
	}
	return b.String()
}
