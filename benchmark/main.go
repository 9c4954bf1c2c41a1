// Command fmbench is the repository's benchmark: four workloads over the
// FluidMem simulator, each reported on two clocks — virtual time, which is the
// paper-facing result and repeats exactly for a commit and a seed, and host
// wall time, which bounds how large a scenario anyone can afford to simulate.
// README.md in this directory describes workloads, metrics and their bounds.
//
// One invocation runs one workload:
//
//	fmbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// and prints, as the last line of standard output, one JSON object with the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// progress is the last thing the benchmark finished, for the deadline report.
var progress atomic.Value

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run (required; with -selfcheck, default all)")
		seed      = fs.Uint64("seed", 1, "seed every input stream derives from")
		seconds   = fs.Float64("seconds", runSeconds, "measured wall time to accumulate over repetitions")
		traced    = fs.Int("trace", 0, "0: end-to-end metrics from untraced repetitions; 1: per-layer metrics from a traced repetition")
		reps      = fs.Int("reps", 0, "fixed repetition count (0: as many as -seconds takes, at least 3)")
		selfcheck = fs.Bool("selfcheck", false, "run two sets back to back and hold their difference to the bounds")
		deadline  = fs.Duration("deadline", 0, "hard wall-clock limit (0: 170s for a run, none for -selfcheck)")
		describe  = fs.Bool("describe", false, "print BENCHMARK.json and exit")
		outDir    = fs.String("out", filepath.Join("benchmark", "out"), "directory for trace files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe {
		doc, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(stderr, "fmbench:", err)
			return 1
		}
		stdout.Write(doc)
		return 0
	}

	// The simulator is single-threaded; a second thread is left for the
	// collector, and more would only add scheduling noise.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	if *deadline == 0 && !*selfcheck {
		*deadline = 170 * time.Second
	}
	if *deadline > 0 {
		progress.Store("nothing finished yet")
		timer := time.AfterFunc(*deadline, func() {
			fmt.Fprintf(stderr, "fmbench: deadline of %v exceeded; last finished: %v\n", *deadline, progress.Load())
			os.Exit(2)
		})
		defer timer.Stop()
	}

	if *selfcheck {
		return selfCheck(*name, *seed, *seconds, *reps, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "fmbench: unknown workload %q; have:", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}
	var out *outcome
	var err error
	if *traced != 0 {
		out, err = runTraced(w, *seed, fullSizes, 1, *outDir, stdout)
	} else {
		out, _, err = runTimed(w, *seed, fullSizes, *seconds, *reps, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fmbench:", err)
	}
	if out == nil {
		return 1
	}
	line, merr := json.Marshal(out)
	if merr != nil {
		fmt.Fprintln(stderr, "fmbench:", merr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if err != nil || !out.Correct {
		return 1
	}
	return 0
}

// quartiles returns the quartiles of values as Python's
// statistics.quantiles(values, n=4) does (the exclusive method).
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, med, _ := quartiles(values)
	return med
}

// emit fills an outcome's metrics from values, for the given definitions.
// A definition without a value reads 0: the metric does not apply.
func emit(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// fastestWall is the measured phase's wall time with every segment taken
// from the repetition that ran it fastest.
//
// The host is a shared virtual machine whose speed sags by 10–25 % for
// seconds to a minute at a time and never rises above its undisturbed level:
// the noise is one-sided. On a 250-repetition probe of this sandbox the median
// of a run's repetitions spread 7 % between runs, the fastest 2.6 %. The
// fastest time of each piece of work is the steadiest estimate of what the
// code costs when nothing else is.
func fastestWall(all []*rep) (time.Duration, error) {
	fastest := append([]time.Duration(nil), all[0].segments...)
	for i, r := range all[1:] {
		if len(r.segments) != len(fastest) {
			return 0, fmt.Errorf("repetition %d timed %d segments, repetition 0 timed %d", i+1, len(r.segments), len(fastest))
		}
		for j, d := range r.segments {
			if d < fastest[j] {
				fastest[j] = d
			}
		}
	}
	var sum time.Duration
	for _, d := range fastest {
		sum += d
	}
	return sum, nil
}

// runTimed does untraced repetitions, each on freshly built state, until
// their measured phases add up to seconds (or exactly reps of them), and
// reports the end-to-end metrics: for the host's, the median set-up, the
// fastest-segment throughput and the median memory over repetitions; for
// virtual time, the one exact value.
func runTimed(w workload, seed uint64, sz sizes, seconds float64, reps int, report io.Writer) (*outcome, []*rep, error) {
	var all []*rep
	var measured time.Duration
	var firstErr error
	out := &outcome{Correct: true}
	for i := 0; ; i++ {
		if reps > 0 && i >= reps {
			break
		}
		if reps == 0 && i >= 3 && measured.Seconds() >= seconds {
			break
		}
		r, err := w.run(seed, sz, nil)
		if r == nil {
			return nil, nil, fmt.Errorf("%s: repetition %d: %w", w.name, i, err)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: repetition %d: %w", w.name, i, err)
		}
		if len(all) > 0 {
			if diff := diffDet(all[0], r); len(diff) > 0 {
				return nil, nil, fmt.Errorf("%s: seed %d gave different virtual-time results in repetitions 0 and %d: %v", w.name, seed, i, diff)
			}
		}
		all = append(all, r)
		measured += r.wall
		out.Attempted += r.ops
		out.Failed += r.failed
		progress.Store(fmt.Sprintf("%s repetition %d: %d ops in %v, set-up %v", w.name, i, r.ops, r.wall, r.setup))
	}
	if out.Failed > 0 || firstErr != nil {
		out.Correct = false
	}

	var setups, rates, heaps []float64
	for _, r := range all {
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, float64(r.ops)/r.wall.Seconds())
		heaps = append(heaps, r.memMiB)
	}
	fastest, err := fastestWall(all)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	values := map[string]float64{
		"setup_s":          median(setups),
		"wall_ops_per_sec": float64(all[0].ops) / fastest.Seconds(),
		"host_mem_mb":      median(heaps),
	}
	for name, v := range all[0].det {
		values[name] = v
	}
	if out.Metrics, err = emit(endToEnd, values); err != nil {
		return nil, nil, err
	}

	fmt.Fprintf(report, "%s seed %d: %d repetitions, %d ops each, %.1f s measured\n", w.name, seed, len(all), all[0].ops, measured.Seconds())
	fmt.Fprintf(report, "  %-26s %-14.6g ops/s with each of %d segments at its fastest\n", "wall_ops_per_sec", values["wall_ops_per_sec"], len(all[0].segments))
	for _, row := range []struct {
		name string
		v    []float64
	}{{"setup_s", setups}, {"whole-repetition ops/s", rates}, {"host_mem_mb", heaps}} {
		q1, med, q3 := quartiles(row.v)
		fmt.Fprintf(report, "  %-26s median %-14.6g quartiles %.6g .. %.6g over %d repetitions\n", row.name, med, q1, q3, len(row.v))
	}
	for _, d := range endToEnd {
		if d.virtual() {
			fmt.Fprintf(report, "  %-26s %-14.6g %s, identical in every repetition\n", d.name, values[d.name], d.unit)
		}
	}
	fmt.Fprintf(report, "  failed ops %d of %d\n", out.Failed, out.Attempted)
	return out, all, firstErr
}

// runTraced does a traced repetition between two untraced ones on the same
// seed, requires all three to agree on every virtual-time result bit for bit,
// and reports the per-layer metrics: counts, spans, and the isolated-drive
// ledger. A process's first repetition runs a tenth slower than its later
// ones, so the tracing overhead is taken against the untraced one that ran
// last.
func runTraced(w workload, seed uint64, sz sizes, ledgerScale int, outDir string, report io.Writer) (*outcome, error) {
	first, err := w.run(seed, sz, nil)
	if first == nil {
		return nil, fmt.Errorf("%s: untraced repetition: %w", w.name, err)
	}
	firstErr := err
	progress.Store(w.name + " untraced repetition")
	rec := newRecorder()
	tr, err := w.run(seed, sz, rec)
	if tr == nil {
		return nil, fmt.Errorf("%s: traced repetition: %w", w.name, err)
	}
	if firstErr == nil {
		firstErr = err
	}
	progress.Store(w.name + " traced repetition")
	plain, err := w.run(seed, sz, nil)
	if plain == nil {
		return nil, fmt.Errorf("%s: second untraced repetition: %w", w.name, err)
	}
	if firstErr == nil {
		firstErr = err
	}
	if diff := append(diffDet(first, tr), diffDet(first, plain)...); len(diff) > 0 {
		return nil, fmt.Errorf("%s: tracing changed virtual-time results: %v", w.name, diff)
	}

	values := make(map[string]float64)
	for name, v := range tr.det {
		values[name] = v
	}
	for name, v := range tr.spanWall {
		values[name] = v
	}
	ops := float64(tr.ops)
	attempted, failed := first.ops+tr.ops+plain.ops, first.failed+tr.failed+plain.failed
	values["failed_ops_pct"] = 100 * float64(failed) / float64(attempted)
	values["runtime.allocs_per_kop"] = 1e3 * float64(plain.mallocs) / float64(plain.ops)
	values["runtime.alloc_bytes_per_op"] = float64(plain.allocBytes) / float64(plain.ops)
	values["runtime.gc_cycles"] = float64(plain.gcCycles)
	plainNs := float64(plain.wall) / float64(plain.ops)
	tracedNs := float64(tr.wall) / ops
	values["harness.trace_overhead_pct"] = 100 * (tracedNs/plainNs - 1)

	touch := rec.agg[spanTouch]
	if touch.calls > 0 {
		values["fluidmem.touch.calls"] = float64(touch.calls)
		err := putQuantiles(values, touch.hist, 1,
			quantileName{"fluidmem.touch.wall_ns_p50", 0.50}, quantileName{"fluidmem.touch.wall_ns_p99", 0.99})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		values["fluidmem.touch.self_ns_per_op"] = float64(rec.selfSum) / ops
		for kind := spanGet; kind <= spanMultiPut; kind++ {
			values[spanNames[kind]+".calls"] = float64(rec.agg[kind].calls)
			values[spanNames[kind]+".wall_ns"] = float64(rec.agg[kind].sum)
		}
		values["kvstore.busy_pct"] = 100 * float64(rec.storeSum()) / float64(tr.wall)
	}
	if w.dry != nil {
		values["harness.wall_ns_per_op"] = w.dry(seed, sz)
	}
	progress.Store(w.name + " spans")
	ledger := runLedger(ledgerScale)
	for name, v := range ledger {
		values[name] = v
	}
	progress.Store(w.name + " ledger")

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "trace-"+w.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := rec.writeChromeTrace(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("write %s: %w", path, err)
	}

	out := &outcome{Correct: failed == 0 && firstErr == nil, Attempted: attempted, Failed: failed}
	if out.Metrics, err = emit(perLayer, values); err != nil {
		return nil, err
	}

	fmt.Fprintf(report, "%s seed %d: traced repetition, %d ops; virtual-time results equal both untraced repetitions' bit for bit\n", w.name, seed, tr.ops)
	fmt.Fprintf(report, "  wall per op: untraced %.1f ns, traced %.1f ns (overhead %.1f%%); %d raw spans in %s\n",
		plainNs, tracedNs, values["harness.trace_overhead_pct"], len(rec.raw), path)
	if touch.calls > 0 {
		self, store, harness := values["fluidmem.touch.self_ns_per_op"], float64(rec.storeSum())/ops, values["harness.wall_ns_per_op"]
		fmt.Fprintf(report, "  where a traced op's %.1f ns go: monitor self %.1f + store %.1f + harness %.1f, %.1f%% unattributed (span clock reads)\n",
			tracedNs, self, store, harness, 100*(tracedNs-self-store-harness)/tracedNs)
	} else {
		// The library builds its own store, so it cannot be opened up from
		// outside: price its counts with the ledger instead.
		faults, hits := values["core.faults"], ops-values["core.faults"]
		attributed := hits*ledger["vm.touch_hit.ns"] + faults*ledger["core.touch_miss.ns"]
		parts := "hits x vm.touch_hit.ns + faults x core.touch_miss.ns"
		if w.name == "openloop_diurnal" {
			attributed += ops*(ledger["loadgen.arrival_next.ns"]+ledger["clock.sched_push_pop.ns"]) + values["host.epochs"]*ledger["market.plan8.ns"]
			parts += " + arrivals x (loadgen.arrival_next.ns + clock.sched_push_pop.ns) + epochs x market.plan8.ns"
		}
		fmt.Fprintf(report, "  counts x ledger: %s = %.1f ns per op of %.1f measured, %.1f%% unattributed\n",
			parts, attributed/ops, plainNs, 100*(plainNs-attributed/ops)/plainNs)
	}
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(report, "  %-44s %-16.6g %s\n", name, out.Metrics[name].Value, out.Metrics[name].Unit)
	}
	return out, firstErr
}

// selfCheck runs two sets back to back and compares them the way the driver
// compares a change with its parent: each end-to-end metric of set B may be
// worse than set A's by at most its bound, and everything measured in virtual
// time must be identical.
func selfCheck(only string, seed uint64, seconds float64, reps int, stdout, stderr io.Writer) int {
	failed := false
	fmt.Fprintf(stdout, "%-18s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "set A", "set B", "worse by", "bound", "")
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		var sets [2]*outcome
		var first [2]*rep
		for i := range sets {
			out, all, err := runTimed(w, seed, fullSizes, seconds, reps, io.Discard)
			if err != nil || out == nil || !out.Correct {
				fmt.Fprintf(stderr, "fmbench: %s set %c: incorrect run: %v\n", w.name, 'A'+i, err)
				return 1
			}
			sets[i], first[i] = out, all[0]
		}
		if diff := diffDet(first[0], first[1]); len(diff) > 0 {
			fmt.Fprintf(stdout, "%-18s virtual-time results and counts differ between sets: %v  FAIL\n", w.name, diff)
			failed = true
		}
		for _, d := range endToEnd {
			a, b := sets[0].Metrics[d.name].Value, sets[1].Metrics[d.name].Value
			worse := (b - a) / a
			if d.better == higher {
				worse = (a - b) / a
			}
			bound, verdict := d.bound, "PASS"
			if d.virtual() {
				bound = 0 // exact
			}
			if worse > bound || (d.virtual() && a != b) {
				verdict, failed = "FAIL", true
			}
			fmt.Fprintf(stdout, "%-18s %-26s %14.6g %14.6g %8.2f%% %6.0f%%  %s\n", w.name, d.name, a, b, 100*worse, 100*bound, verdict)
		}
	}
	if failed {
		return 1
	}
	return 0
}
