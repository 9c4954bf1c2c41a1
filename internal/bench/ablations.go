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

// AblationPoint is one configuration's measurement.
type AblationPoint struct {
	Label string
	// MeanLatency is the sweep workload's mean access latency.
	MeanLatency time.Duration
	// P99Latency is the tail.
	P99Latency time.Duration
	// StoreGets/StorePuts expose the remote traffic behind the number.
	StoreGets uint64
	StorePuts uint64
	Steals    uint64
}

// AblationResult is a one-dimensional sweep.
type AblationResult struct {
	Name   string
	Points []AblationPoint
}

// ablationVariant is one point of a sweep: a change to the monitor's default
// configuration, run in local bytes of DRAM (0: the sweep's scale). It is
// driven by pmbench, or, when scan is set, by A6's read scan of the populated
// working set in page order ("seq") or at random ("rand").
type ablationVariant struct {
	label  string
	local  uint64
	scan   string
	mutate func(*core.Config)
}

// ablation is one sweep: its table title, pmbench's page fill density, and
// its variants.
type ablation struct {
	title    string
	density  float64
	variants []ablationVariant
}

// ablations is the DESIGN.md ablation table over a wss-byte working set,
// keyed by fluidmem-bench experiment name.
func ablations(wss uint64) map[string]ablation {
	steal := func(on bool) func(*core.Config) {
		return func(c *core.Config) {
			c.StealEnabled = on
			c.WriteBatchSize = 64 // a deep write list gives stealing room to matter
		}
	}
	batch := func(n int) ablationVariant {
		return ablationVariant{label: fmt.Sprintf("batch=%d", n), mutate: func(c *core.Config) { c.WriteBatchSize = n }}
	}
	evict := func(label string, withCopy bool) ablationVariant {
		return ablationVariant{label: label, mutate: func(c *core.Config) { c.EvictWithCopy = withCopy }}
	}
	lru := func(frac uint64) ablationVariant {
		return ablationVariant{label: fmt.Sprintf("local=WSS/%d", frac), local: wss / frac}
	}
	pool := func(frac uint64) ablationVariant {
		params := core.DefaultCompressParams(wss / frac)
		return ablationVariant{label: fmt.Sprintf("pool=WSS/%d", frac), mutate: func(c *core.Config) { c.Compress = &params }}
	}
	prefetch := func(scan string, pages int) ablationVariant {
		return ablationVariant{label: fmt.Sprintf("%s, prefetch=%d", scan, pages), scan: scan,
			mutate: func(c *core.Config) { c.PrefetchPages = pages }}
	}
	return map[string]ablation{
		// A1 (§V-B): the steal "shortcuts two round trips to the remote
		// key-value store".
		"ablation-steal": {title: "A1: write-list stealing", variants: []ablationVariant{
			{label: "steal=on", mutate: steal(true)}, {label: "steal=off", mutate: steal(false)}}},
		// A2: multi-write amortisation vs write-list staleness.
		"ablation-batch": {title: "A2: writeback batch size", variants: []ablationVariant{
			batch(1), batch(4), batch(16), batch(32), batch(128)}},
		// A3 (§V-B zero-copy semantics): "UFFD_REMAP ... is not always faster
		// than UFFD_COPY because of the synchronization required".
		"ablation-remap": {title: "A3: eviction mechanism", variants: []ablationVariant{
			evict("UFFD_REMAP (zero-copy)", false), evict("copy-out + zap", true)}},
		// A4: the local-hit ratio vs footprint trade-off behind the paper's
		// resizable buffer.
		"ablation-lru": {title: "A4: LRU list size", variants: []ablationVariant{lru(8), lru(4), lru(2), lru(1)}},
		// A5: the zswap-style compressed tier (§III's page-compression
		// customisation). Half-dense pages compress at ratio ≈ 0.5, so pool
		// budgets bind.
		"ablation-compress": {title: "A5: compressed tier pool size", density: 0.5, variants: []ablationVariant{
			{label: "pool=off"}, pool(16), pool(4), pool(1)}},
		// A6: prefetching pays off on scans and costs wasted store reads on
		// random access — the trade-off that keeps it opt-in (the paper's own
		// configuration disables swap readahead).
		"ablation-prefetch": {title: "A6: sequential prefetching", variants: []ablationVariant{
			prefetch("seq", 0), prefetch("seq", 8), prefetch("rand", 0), prefetch("rand", 8)}},
	}
}

// RunAblation runs one sweep of the ablation table, named as its
// fluidmem-bench experiment, on a RAMCloud monitor whose working set is 4×
// its local DRAM.
func RunAblation(name string, opts Options) (*AblationResult, error) {
	local, wss, accesses := uint64(4<<20), uint64(16<<20), 15000
	if opts.Quick {
		local, wss, accesses = 1<<20, 4<<20, 2500
	}
	a, ok := ablations(wss)[name]
	if !ok {
		return nil, fmt.Errorf("bench: no ablation named %q", name)
	}
	out := &AblationResult{Name: a.title}
	for _, v := range a.variants {
		if v.local == 0 {
			v.local = local
		}
		p, err := runAblationVariant(v, wss, accesses, a.density, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v.label, err)
		}
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// runAblationVariant measures one variant and the store traffic behind it.
func runAblationVariant(v ablationVariant, wss uint64, accesses int, density float64, seed uint64) (AblationPoint, error) {
	m, err := newMonitorMachine(fluidmem.MachineConfig{
		Backend: fluidmem.BackendRAMCloud, LocalMemory: v.local, GuestMemory: wss + wss/4, Seed: seed,
	}, v.mutate)
	if err != nil {
		return AblationPoint{}, err
	}
	lat, err := ablationLatencies(m, v.scan, wss, accesses, density, seed)
	if err != nil {
		return AblationPoint{}, err
	}
	st := m.Store().Stats()
	return AblationPoint{
		Label:       v.label,
		MeanLatency: lat.Mean(),
		P99Latency:  lat.Percentile(99),
		StoreGets:   st.Gets,
		StorePuts:   st.Puts,
		Steals:      m.Monitor().Stats().Steals,
	}, nil
}

// ablationLatencies drives m and returns every access latency: pmbench, or
// for a scan, accesses timed reads of the populated working set.
func ablationLatencies(m *fluidmem.Machine, scan string, wss uint64, accesses int, density float64, seed uint64) (*stats.Sample, error) {
	if scan == "" {
		res, err := runPmbench(m, wss, accesses, density, seed)
		if err != nil {
			return nil, err
		}
		return res.Latencies, nil
	}
	seg, pages, err := populate(m, wss)
	if err != nil {
		return nil, err
	}
	rng := clock.NewRand(seed + 99)
	lat := stats.NewSample(accesses)
	for n := 0; n < accesses; n++ {
		page := n % pages
		if scan == "rand" {
			page = rng.Intn(pages)
		}
		start := m.Now()
		if _, err := m.Read64(seg.Addr(uint64(page) * vm.PageSize)); err != nil {
			return nil, err
		}
		lat.Add(m.Now() - start)
	}
	return lat, nil
}

// Render prints the sweep.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation %s\n", r.Name)
	fmt.Fprintf(&b, "%-24s %10s %10s %10s %10s %8s\n", "Config", "avg µs", "p99 µs", "gets", "puts", "steals")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-24s %10s %10s %10d %10d %8d\n",
			p.Label, microseconds(p.MeanLatency), microseconds(p.P99Latency), p.StoreGets, p.StorePuts, p.Steals)
	}
	return b.String()
}
