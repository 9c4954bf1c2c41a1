package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"fluidmem/internal/core"
	"fluidmem/internal/kvstore/ramcloud"
)

// WritebackRow is one write-back pipeline configuration measured under the
// shared mixed workload.
type WritebackRow struct {
	// Label names the configuration: per-page-put, multiput-batched, or
	// multiput-elide-drop.
	Label string `json:"label"`
	// Faults is store-level fault traffic retired in the measured phase.
	Faults uint64 `json:"faults"`
	// Elapsed is the virtual time the pipeline took to drain the offered
	// load; Throughput is faults per virtual second.
	Elapsed    time.Duration `json:"elapsed_ns"`
	Throughput float64       `json:"faults_per_sec"`
	// StorePuts counts pages that actually crossed the wire (per-key puts,
	// including those carried inside MultiPuts); MultiPuts counts the
	// amortised round trips that carried them.
	StorePuts uint64 `json:"store_puts"`
	MultiPuts uint64 `json:"store_multiputs"`
	// ZeroElided and CleanDropped are evictions that cost no store write at
	// all; WritesAvoided is their sum. Coalesced counts re-evictions absorbed
	// into a queued entry before flushing.
	ZeroElided    uint64 `json:"zero_elided"`
	CleanDropped  uint64 `json:"clean_dropped"`
	WritesAvoided uint64 `json:"writes_avoided"`
	Coalesced     uint64 `json:"coalesced"`
	// FlushSizes histograms MultiPut batch sizes (batch size -> count).
	FlushSizes map[int]uint64 `json:"flush_size_histogram"`
}

// WritebackResult is the write-back pipeline comparison: one workload (mixed
// reads, non-zero writes, and zeroing writes over a region far larger than
// local DRAM) replayed against three eviction write paths. Row 1 writes every
// victim synchronously, one store Put per eviction — the pre-§V-B monitor.
// Row 2 batches victims on the asynchronous write list and flushes them with
// one amortised MultiPut. Row 3 adds the dirty-aware elisions: all-zero
// victims enter the zero bitmap instead of the wire, and still-clean victims
// (store copy current, no write since install) are dropped outright.
type WritebackResult struct {
	Pages    int            `json:"pages"`
	Capacity int            `json:"capacity"`
	Ops      int            `json:"ops"`
	Workers  int            `json:"workers"`
	Seed     uint64         `json:"seed"`
	Rows     []WritebackRow `json:"rows"`
}

const writebackBase = 0x7e00_0000_0000

// writebackVariant is one row's configuration delta over DefaultConfig.
type writebackVariant struct {
	label  string
	mutate func(*core.Config)
}

func writebackVariants() []writebackVariant {
	return []writebackVariant{
		// Synchronous per-page writes on the fault critical path: no page is
		// queued, so no batching and nothing to steal.
		{"per-page-put", func(c *core.Config) { c.AsyncWrite = false }},
		// The §V-B asynchronous write list with MultiPut group flushes.
		{"multiput-batched", nil},
		// Group flushes plus zero-page elision and clean-page drop.
		{"multiput-elide-drop", func(c *core.Config) {
			c.ElideZeroPages = true
			c.CleanPageDrop = true
		}},
	}
}

// RunWriteback measures the three write paths under one offered load.
func RunWriteback(opts Options) (*WritebackResult, error) {
	pages, capacity, ops := 1024, 192, 4096
	if opts.Quick {
		pages, capacity, ops = 256, 48, 1024
	}
	const workers = 4
	res := &WritebackResult{
		Pages: pages, Capacity: capacity, Ops: ops,
		Workers: workers, Seed: opts.Seed,
	}

	// Precompute the op stream once: every row sees byte-identical guest
	// behaviour, so the rows differ only in the eviction write path.
	stream := mixedStream(opts.Seed, writebackBase, pages, ops)

	for _, v := range writebackVariants() {
		row, err := runWritebackRow(v, stream, pages, capacity, workers, opts.Seed)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

// runWritebackRow replays the shared op stream against one configuration,
// measuring the pipeline's drain time and the store write traffic it cost.
func runWritebackRow(v writebackVariant, stream []replayOp, pages, capacity, workers int, seed uint64) (*WritebackRow, error) {
	store := ramcloud.New(ramcloud.DefaultParams(), seed+101)
	cfg := core.DefaultConfig(store, capacity)
	cfg.Workers = workers
	cfg.Seed = seed
	if v.mutate != nil {
		v.mutate(&cfg)
	}
	r, err := newReplay("bench-writeback", cfg, writebackBase, pages)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", v.label, err)
	}
	m := r.m

	statsBefore := m.Stats()
	storeBefore := store.Stats()
	wbBefore := m.WritebackStats()
	finish, err := r.run(stream)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", v.label, err)
	}

	stats := m.Stats()
	st := store.Stats()
	wb := m.WritebackStats()
	row := &WritebackRow{
		Label:        v.label,
		Faults:       stats.Faults - statsBefore.Faults,
		Elapsed:      finish - r.start,
		StorePuts:    st.Puts - storeBefore.Puts,
		MultiPuts:    st.MultiPuts - storeBefore.MultiPuts,
		ZeroElided:   stats.ZeroElided - statsBefore.ZeroElided,
		CleanDropped: stats.CleanDropped - statsBefore.CleanDropped,
		Coalesced:    wb.Coalesced - wbBefore.Coalesced,
		FlushSizes:   make(map[int]uint64),
	}
	row.WritesAvoided = row.ZeroElided + row.CleanDropped
	for size, count := range wb.FlushSizes {
		if delta := count - wbBefore.FlushSizes[size]; delta > 0 {
			row.FlushSizes[size] = delta
		}
	}
	if row.Elapsed > 0 {
		row.Throughput = float64(row.Faults) / row.Elapsed.Seconds()
	}
	return row, nil
}

// Render prints the comparison table.
func (r *WritebackResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Write-back pipeline — %d ops over %d pages, capacity %d, %d workers, RAMCloud\n",
		r.Ops, r.Pages, r.Capacity, r.Workers)
	fmt.Fprintf(&b, "%-20s %8s %12s %12s %10s %10s %8s %8s %9s\n",
		"config", "faults", "elapsed", "faults/sec", "store-puts", "multiputs", "elided", "dropped", "coalesced")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-20s %8d %12v %12.0f %10d %10d %8d %8d %9d\n",
			row.Label, row.Faults, row.Elapsed.Round(time.Microsecond), row.Throughput,
			row.StorePuts, row.MultiPuts, row.ZeroElided, row.CleanDropped, row.Coalesced)
	}
	for _, row := range r.Rows {
		if len(row.FlushSizes) == 0 {
			continue
		}
		sizes := make([]int, 0, len(row.FlushSizes))
		for size := range row.FlushSizes {
			sizes = append(sizes, size)
		}
		sort.Ints(sizes)
		fmt.Fprintf(&b, "flush sizes (%s):", row.Label)
		for _, size := range sizes {
			fmt.Fprintf(&b, " %d×%d", size, row.FlushSizes[size])
		}
		b.WriteString("\n")
	}
	return b.String()
}
