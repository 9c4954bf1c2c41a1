package bench

import (
	"strings"
	"testing"
	"time"

	"fluidmem/internal/core"
	"fluidmem/internal/stats"
)

func quickOpts() Options { return Options{Quick: true, Seed: 1} }

// lookup returns the first of rows that match accepts, failing tb when none
// does: the one way the shape tests and the benchmarks below read a result.
func lookup[T any](tb testing.TB, rows []T, match func(T) bool) T {
	tb.Helper()
	for _, r := range rows {
		if match(r) {
			return r
		}
	}
	tb.Fatalf("no %T matches", *new(T))
	return *new(T)
}

func fig3Mean(tb testing.TB, res *Fig3Result, system string) time.Duration {
	return lookup(tb, res.Lines, func(l Fig3Line) bool { return l.System == system }).Result.Latencies.Mean()
}

func fig4TEPS(tb testing.TB, res *Fig4Result, system string, scale int) float64 {
	return lookup(tb, res.Cells, func(c Fig4Cell) bool { return c.System == system && c.Scale == scale }).TEPS
}

func fig5Mean(tb testing.TB, res *Fig5Result, system string, cache uint64) time.Duration {
	return lookup(tb, res.Series, func(s Fig5Series) bool { return s.System == system && s.CacheBytes == cache }).Result.Latencies.Mean()
}

func table2Cell(tb testing.TB, res *Table2Result, opt, backend string) Table2Cell {
	return lookup(tb, res.Cells, func(c Table2Cell) bool { return c.Opt == opt && c.Backend == backend })
}

func TestFig3ShapeMatchesPaper(t *testing.T) {
	res, err := RunFig3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lines) != 6 {
		t.Fatalf("lines = %d", len(res.Lines))
	}
	get := func(name string) float64 { return float64(fig3Mean(t, res, name)) }
	fmRC := get("FluidMem RAMCloud")
	fmMC := get("FluidMem Memcached")
	swapDRAM := get("Swap DRAM")
	swapNVMe := get("Swap NVMeoF")
	swapSSD := get("Swap SSD")
	fmDRAM := get("FluidMem DRAM")

	// The paper's headline orderings (§VI-B).
	if !(fmRC < swapNVMe) {
		t.Errorf("FluidMem RAMCloud (%v) not faster than swap NVMeoF (%v)", fmRC, swapNVMe)
	}
	if !(fmRC < swapSSD) {
		t.Errorf("FluidMem RAMCloud (%v) not faster than swap SSD (%v)", fmRC, swapSSD)
	}
	if !(fmDRAM < swapDRAM) {
		t.Errorf("FluidMem DRAM (%v) not faster than swap DRAM (%v)", fmDRAM, swapDRAM)
	}
	if !(swapDRAM < swapNVMe && swapNVMe < swapSSD) {
		t.Errorf("swap device ordering broken: %v %v %v", swapDRAM, swapNVMe, swapSSD)
	}
	if !(fmMC > swapNVMe && fmMC < swapSSD) {
		t.Errorf("Memcached (%v) should sit between NVMeoF (%v) and SSD (%v)", fmMC, swapNVMe, swapSSD)
	}
	// Paper: 40% reduction FluidMem-RAMCloud vs swap-NVMeoF; allow a band.
	if saving := 1 - fmRC/swapNVMe; saving < 0.15 || saving > 0.60 {
		t.Errorf("RAMCloud saving vs NVMeoF = %.0f%%, want ≈40%%", saving*100)
	}
	if !strings.Contains(res.Render(), "Figure 3") {
		t.Error("render missing title")
	}
}

func TestTable1MatchesPaperCalibration(t *testing.T) {
	res, err := RunTable1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	row := func(op string) Table1Row {
		return lookup(t, res.Rows, func(r Table1Row) bool { return r.CodePath == op })
	}
	// Paper's Table I averages in µs, with a ±25% acceptance band.
	want := map[string]float64{
		core.OpUpdatePageCache: 2.56,
		core.OpInsertPageHash:  2.58,
		core.OpInsertLRUCache:  2.87,
		core.OpUffdZeroPage:    2.61,
		core.OpUffdRemap:       1.65,
		core.OpUffdCopy:        3.89,
		core.OpReadPage:        15.62,
		core.OpWritePage:       14.70,
	}
	for op, target := range want {
		got := float64(row(op).Avg) / 1000 // ns → µs
		if got < target*0.75 || got > target*1.25 {
			t.Errorf("%s avg = %.2fµs, want ≈%.2fµs", op, got, target)
		}
	}
	// UFFD_REMAP's defining feature: a TLB-shootdown p99 tail far above avg.
	if remap := row(core.OpUffdRemap); remap.P99 < 4*remap.Avg {
		t.Errorf("REMAP p99 (%v) lacks the shootdown tail (avg %v)", remap.P99, remap.Avg)
	}
}

func TestTable2OptimisationsMonotone(t *testing.T) {
	res, err := RunTable2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	cell := func(opt, backend string) float64 { return float64(table2Cell(t, res, opt, backend).Random) }
	def := cell("Default", "ramcloud")
	ar := cell("Async Read", "ramcloud")
	aw := cell("Async Write", "ramcloud")
	both := cell("Async Read/Write", "ramcloud")
	if !(ar < def) {
		t.Errorf("async read (%v) did not beat default (%v)", ar, def)
	}
	if !(aw < def) {
		t.Errorf("async write (%v) did not beat default (%v)", aw, def)
	}
	if !(both < ar && both < aw) {
		t.Errorf("combined (%v) did not beat singles (%v, %v)", both, ar, aw)
	}
	// Paper: combined optimisations cut RAMCloud latency roughly in half.
	if ratio := both / def; ratio > 0.75 {
		t.Errorf("combined/default = %.2f, want large improvement", ratio)
	}
	// DRAM shows much smaller absolute gains than RAMCloud.
	dramGain := cell("Default", "dram") - cell("Async Read/Write", "dram")
	rcGain := def - both
	if dramGain > rcGain {
		t.Errorf("DRAM gained more (%v) than RAMCloud (%v)", dramGain, rcGain)
	}
}

func TestFig4ShapeMatchesPaper(t *testing.T) {
	res, err := RunFig4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	scales := res.Config.Scales
	low, high := scales[0], scales[len(scales)-1]
	teps := func(sys string, scale int) float64 { return fig4TEPS(t, res, sys, scale) }
	// In-DRAM scale: FluidMem overhead vs swap is small (paper: 2.6%).
	fm, sw := teps("FluidMem RAMCloud", low), teps("Swap NVMeoF", low)
	if overhead := 1 - fm/sw; overhead > 0.15 {
		t.Errorf("FluidMem overhead at in-DRAM scale = %.1f%%, want small", overhead*100)
	}
	// Beyond DRAM: FluidMem RAMCloud must beat swap NVMeoF (Figure 4b-d).
	if fm, sw := teps("FluidMem RAMCloud", high), teps("Swap NVMeoF", high); fm <= sw {
		t.Errorf("FluidMem RAMCloud (%v) not above swap NVMeoF (%v) under pressure", fm, sw)
	}
	// Memcached-backed FluidMem beats swap on SSD (the Ethernet-datacenter
	// argument of §VI-D1).
	if mc, ssd := teps("FluidMem Memcached", high), teps("Swap SSD", high); mc <= ssd {
		t.Errorf("FluidMem Memcached (%v) not above swap SSD (%v)", mc, ssd)
	}
	// TEPS decreases as WSS grows for every system.
	for _, sys := range Systems() {
		if a, b := teps(sys.Label, low), teps(sys.Label, high); b >= a {
			t.Errorf("%s TEPS did not degrade with scale (%v → %v)", sys.Label, a, b)
		}
	}
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	res, err := RunFig5(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	sizes := res.Config.CacheSizes
	small, large := sizes[0], sizes[len(sizes)-1]
	fmSmall := fig5Mean(t, res, "FluidMem RAMCloud", small)
	fmLarge := fig5Mean(t, res, "FluidMem RAMCloud", large)
	swSmall := fig5Mean(t, res, "Swap NVMeoF", small)
	swLarge := fig5Mean(t, res, "Swap NVMeoF", large)
	// Latency decreases with cache size for both systems.
	if fmLarge >= fmSmall {
		t.Errorf("FluidMem did not improve with cache: %v → %v", fmSmall, fmLarge)
	}
	if swLarge >= swSmall {
		t.Errorf("swap did not improve with cache: %v → %v", swSmall, swLarge)
	}
	// At the smallest cache, swap is markedly worse (paper: up to 95%).
	if swSmall <= fmSmall {
		t.Errorf("swap (%v) not slower than FluidMem (%v) at small cache", swSmall, fmSmall)
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	res, err := RunTable3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := func(prefix string) Table3Row {
		return lookup(t, res.Rows, func(r Table3Row) bool { return strings.HasPrefix(r.Scenario, prefix) })
	}
	if boot := row("After startup"); !boot.SSH || !boot.ICMP {
		t.Error("fresh VM should answer both services")
	}
	if balloon := row("Max VM balloon size"); balloon.FootprintPages <= 180 {
		t.Error("balloon reached a FluidMem-scale footprint; its floor should stop it")
	}
	if fm180 := row("FluidMem (KVM) 180"); !fm180.SSH || !fm180.ICMP || !fm180.Revived {
		t.Errorf("180 pages: %+v", fm180)
	}
	if fm80 := row("FluidMem (KVM) 80"); fm80.SSH || !fm80.ICMP || !fm80.Revived {
		t.Errorf("80 pages: %+v", fm80)
	}
	if fv1 := row("FluidMem (full virtualization)"); fv1.SSH || fv1.ICMP || fv1.Deadlocked || !fv1.Revived {
		t.Errorf("1 page full virt: %+v", fv1)
	}
}

func TestAblationsRun(t *testing.T) {
	run := func(name string) *AblationResult {
		t.Helper()
		res, err := RunAblation(name, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Render(), "Ablation") {
			t.Errorf("%s: render missing header", name)
		}
		return res
	}
	point := func(r *AblationResult, label string) AblationPoint {
		return lookup(t, r.Points, func(p AblationPoint) bool { return p.Label == label })
	}

	steal := run("ablation-steal")
	on, off := point(steal, "steal=on"), point(steal, "steal=off")
	if on.Steals == 0 || off.Steals != 0 {
		t.Errorf("steal counters wrong: on=%d off=%d", on.Steals, off.Steals)
	}
	// Stealing removes the forced-flush wait: the tail must be smaller.
	if on.P99Latency >= off.P99Latency {
		t.Errorf("steal=on p99 (%v) not below steal=off (%v)", on.P99Latency, off.P99Latency)
	}

	if remap := run("ablation-remap"); len(remap.Points) != 2 {
		t.Fatal("remap ablation incomplete")
	}

	lru := run("ablation-lru")
	// More local memory, fewer remote reads.
	for i := 1; i < len(lru.Points); i++ {
		if lru.Points[i].StoreGets > lru.Points[i-1].StoreGets {
			t.Errorf("gets rose with more local memory: %+v", lru.Points)
		}
	}

	if batch := run("ablation-batch"); len(batch.Points) != 5 {
		t.Fatal("batch sweep incomplete")
	}

	compress := run("ablation-compress")
	// A big-enough pool must remove remote read traffic entirely.
	first, last := compress.Points[0], compress.Points[len(compress.Points)-1]
	if first.Label != "pool=off" || first.StoreGets == 0 {
		t.Errorf("baseline point wrong: %+v", first)
	}
	if last.StoreGets >= first.StoreGets {
		t.Errorf("largest pool removed no remote reads: %d vs %d", last.StoreGets, first.StoreGets)
	}

	prefetch := run("ablation-prefetch")
	seqOff, seqOn := point(prefetch, "seq, prefetch=0"), point(prefetch, "seq, prefetch=8")
	randOff, randOn := point(prefetch, "rand, prefetch=0"), point(prefetch, "rand, prefetch=8")
	if seqOn.MeanLatency >= seqOff.MeanLatency {
		t.Errorf("prefetch did not help sequential scans: %v vs %v", seqOn.MeanLatency, seqOff.MeanLatency)
	}
	if randOn.StoreGets <= randOff.StoreGets {
		t.Errorf("random prefetch shows no wasted reads: %d vs %d", randOn.StoreGets, randOff.StoreGets)
	}

	if _, err := RunAblation("ablation-nosuch", quickOpts()); err == nil {
		t.Error("an unknown ablation ran")
	}
}

func TestDensityFluidMemWins(t *testing.T) {
	res, err := RunDensity(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The shared LRU must hand the idle guests' DRAM to the active one.
	if res.FluidMemMean >= res.SwapMean {
		t.Errorf("FluidMem active guest (%v) not faster than statically partitioned swap (%v)",
			res.FluidMemMean, res.SwapMean)
	}
	if res.FluidMemActiveRes <= res.SwapFramesPerVM {
		t.Errorf("active guest only holds %d pages; static split gives %d",
			res.FluidMemActiveRes, res.SwapFramesPerVM)
	}
	// Density must not kill the idle guests.
	if !res.IdleStillRespond {
		t.Error("idle guests stopped answering ICMP")
	}
	if !strings.Contains(res.Render(), "Density") {
		t.Error("render missing header")
	}
}

func TestWorkersThroughputMonotone(t *testing.T) {
	res, err := RunWorkers(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(WorkerCounts()) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The headline claim: fault throughput rises monotonically from 1 to 4
	// workers. Beyond that the shared store read channel is the floor, so 8
	// workers only needs to hold the level (small tolerance for jitter).
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		if cur.Workers <= 4 && cur.Throughput <= prev.Throughput {
			t.Errorf("throughput not increasing %d→%d workers: %.0f vs %.0f",
				prev.Workers, cur.Workers, prev.Throughput, cur.Throughput)
		}
		if cur.Workers > 4 && cur.Throughput < prev.Throughput*0.95 {
			t.Errorf("throughput regressed %d→%d workers: %.0f vs %.0f",
				prev.Workers, cur.Workers, prev.Throughput, cur.Throughput)
		}
	}
	// Going 1→2 workers must be a big step, not noise: the serial monitor
	// is the bottleneck at width 1.
	if res.Rows[1].Throughput < res.Rows[0].Throughput*1.5 {
		t.Errorf("2 workers only %.0f vs %.0f at 1: pipeline not the bottleneck",
			res.Rows[1].Throughput, res.Rows[0].Throughput)
	}
	// Batching must actually batch: every demand fault is one MultiGet
	// carrying itself plus its readahead window.
	last := res.Rows[len(res.Rows)-1]
	if last.MultiGets == 0 || last.BatchedGets < last.MultiGets*4 {
		t.Errorf("MultiGet batching missing: %d batches, %d keys", last.MultiGets, last.BatchedGets)
	}
	if !strings.Contains(res.Render(), "Worker scaling") {
		t.Error("render missing header")
	}
}

// One testing.B benchmark per table and figure of the paper's evaluation
// (§VI), plus the DESIGN.md ablations. Each iteration executes a
// reduced-scale variant of the experiment (Options.Quick); the full-scale
// runs behind EXPERIMENTS.md come from cmd/fluidmem-bench. Reported custom
// metrics are virtual-time results (µs of simulated latency, simulated TEPS),
// so they are comparable with the paper's numbers, while ns/op measures the
// simulator itself.

func benchOpts(i int) Options { return Options{Quick: true, Seed: uint64(i) + 1} }

// BenchmarkFig3PmbenchCDF regenerates Figure 3: pmbench fault-latency
// distributions over all six system configurations.
func BenchmarkFig3PmbenchCDF(b *testing.B) {
	b.ReportAllocs()
	var fmRC, swapNVMe float64
	for i := 0; i < b.N; i++ {
		res, err := RunFig3(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		fmRC = stats.Micros(fig3Mean(b, res, "FluidMem RAMCloud"))
		swapNVMe = stats.Micros(fig3Mean(b, res, "Swap NVMeoF"))
	}
	b.ReportMetric(fmRC, "µs-fluidmem-ramcloud")
	b.ReportMetric(swapNVMe, "µs-swap-nvmeof")
}

// BenchmarkTable1CodePathProfile regenerates Table I: the monitor's
// per-code-path latency profile on RAMCloud.
func BenchmarkTable1CodePathProfile(b *testing.B) {
	b.ReportAllocs()
	var readPage float64
	for i := 0; i < b.N; i++ {
		res, err := RunTable1(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		readPage = stats.Micros(lookup(b, res.Rows, func(r Table1Row) bool { return r.CodePath == core.OpReadPage }).Avg)
	}
	b.ReportMetric(readPage, "µs-read-page")
}

// BenchmarkTable2Optimisations regenerates Table II: fault latency by
// optimisation level, backend, and access pattern.
func BenchmarkTable2Optimisations(b *testing.B) {
	b.ReportAllocs()
	var def, both float64
	for i := 0; i < b.N; i++ {
		res, err := RunTable2(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		def = stats.Micros(table2Cell(b, res, "Default", "ramcloud").Random)
		both = stats.Micros(table2Cell(b, res, "Async Read/Write", "ramcloud").Random)
	}
	b.ReportMetric(def, "µs-default")
	b.ReportMetric(both, "µs-optimised")
}

// BenchmarkFig4Graph500 regenerates Figure 4: Graph500 TEPS across scale
// factors and systems.
func BenchmarkFig4Graph500(b *testing.B) {
	b.ReportAllocs()
	var fm, sw float64
	for i := 0; i < b.N; i++ {
		res, err := RunFig4(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		high := res.Config.Scales[len(res.Config.Scales)-1]
		fm, sw = fig4TEPS(b, res, "FluidMem RAMCloud", high), fig4TEPS(b, res, "Swap NVMeoF", high)
	}
	b.ReportMetric(fm/1e6, "MTEPS-fluidmem")
	b.ReportMetric(sw/1e6, "MTEPS-swap")
}

// BenchmarkFig5MongoDB regenerates Figure 5: YCSB-C read latency over the
// MongoDB-like store, swap vs FluidMem.
func BenchmarkFig5MongoDB(b *testing.B) {
	b.ReportAllocs()
	var fm, sw float64
	for i := 0; i < b.N; i++ {
		res, err := RunFig5(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		small := res.Config.CacheSizes[0]
		fm = stats.Micros(fig5Mean(b, res, "FluidMem RAMCloud", small))
		sw = stats.Micros(fig5Mean(b, res, "Swap NVMeoF", small))
	}
	b.ReportMetric(fm, "µs-fluidmem")
	b.ReportMetric(sw, "µs-swap")
}

// BenchmarkTable3Footprint regenerates Table III: footprint minimisation
// with service-responsiveness probes.
func BenchmarkTable3Footprint(b *testing.B) {
	b.ReportAllocs()
	var minResponsive float64
	for i := 0; i < b.N; i++ {
		res, err := RunTable3(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.ICMP {
				minResponsive = float64(row.FootprintPages)
			}
		}
	}
	b.ReportMetric(minResponsive, "min-icmp-pages")
}

// BenchmarkAblations regenerates ablations A1–A4, one sub-benchmark each.
func BenchmarkAblations(b *testing.B) {
	for _, name := range []string{"ablation-steal", "ablation-batch", "ablation-remap", "ablation-lru"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunAblation(name, benchOpts(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
