// Command fluidmem-bench regenerates the paper's evaluation tables and
// figures (§VI) plus the DESIGN.md ablations, printing paper-style text
// tables. Run with -list to see experiment names.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"fluidmem/internal/bench"
	"fluidmem/internal/profiling"
)

// renderable is any experiment result.
type renderable interface{ Render() string }

// jsonable marks results that can also be emitted as a machine-readable
// BENCH_<name>.json artifact (the -json flag).
type jsonable interface{ JSON() ([]byte, error) }

// traceable marks results that recorded a full virtual-time event log and
// can serialise it as a Chrome trace (the -trace flag).
type traceable interface{ WriteChromeTrace(io.Writer) error }

// validatable marks results that carry their own artifact sanity check; a
// failing Validate aborts -json before the artifact is written (e.g. a
// BENCH_market.json with zero SLO-enforcement epochs measures nothing and
// must never be committed as a baseline).
type validatable interface{ Validate() error }

// experiment couples a name to its runner. artifact marks the experiments
// whose results are committed as BENCH_<name>.json baselines: the Makefile's
// bench-json and bench-ratchet targets select them with the meta-name
// "artifacts" instead of hand-maintaining a list, so adding an experiment
// here is the single step that enrolls it in both gates.
type experiment struct {
	name     string
	desc     string
	artifact bool
	run      func(bench.Options) (renderable, error)
}

func experiments() []experiment {
	return []experiment{
		{"fig3", "pmbench page-fault latency CDFs, 6 systems", false, func(o bench.Options) (renderable, error) { return bench.RunFig3(o) }},
		{"table1", "monitor code-path latency profile (RAMCloud, sync)", false, func(o bench.Options) (renderable, error) { return bench.RunTable1(o) }},
		{"table2", "fault latency vs optimisations × backend × pattern", false, func(o bench.Options) (renderable, error) { return bench.RunTable2(o) }},
		{"fig4", "Graph500 TEPS across scale factors, 6 systems", false, func(o bench.Options) (renderable, error) { return bench.RunFig4(o) }},
		{"fig5", "MongoDB YCSB-C latency time courses, swap vs FluidMem", false, func(o bench.Options) (renderable, error) { return bench.RunFig5(o) }},
		{"table3", "VM footprint minimisation and service responsiveness", false, func(o bench.Options) (renderable, error) { return bench.RunTable3(o) }},
		{"ablation-steal", "A1: write-list page stealing on/off", false, func(o bench.Options) (renderable, error) { return bench.RunAblationSteal(o) }},
		{"ablation-batch", "A2: writeback batch-size sweep", false, func(o bench.Options) (renderable, error) { return bench.RunAblationBatch(o) }},
		{"ablation-remap", "A3: UFFD_REMAP vs copy-out eviction", false, func(o bench.Options) (renderable, error) { return bench.RunAblationRemap(o) }},
		{"ablation-lru", "A4: LRU list size sweep", false, func(o bench.Options) (renderable, error) { return bench.RunAblationLRU(o) }},
		{"ablation-compress", "A5: compressed-tier pool size sweep", false, func(o bench.Options) (renderable, error) { return bench.RunAblationCompress(o) }},
		{"ablation-prefetch", "A6: sequential prefetching on/off × pattern", false, func(o bench.Options) (renderable, error) { return bench.RunAblationPrefetch(o) }},
		{"density", "multi-VM density: idle guests drain, active guest grows (§VI-E)", false, func(o bench.Options) (renderable, error) { return bench.RunDensity(o) }},
		{"chaos", "fault-latency degradation under injected failures, replicated + resilient", false, func(o bench.Options) (renderable, error) { return bench.RunChaos(o) }},
		{"cluster", "multi-node pool lifecycle: fault p50/p99 healthy/crashed/recovered/drained vs single store", true, func(o bench.Options) (renderable, error) { return bench.RunCluster(o) }},
		{"workers", "fault throughput vs pipeline width, batched MultiGet readahead", false, func(o bench.Options) (renderable, error) { return bench.RunWorkers(o) }},
		{"writeback", "eviction write path: per-page Put vs MultiPut batching vs zero-elide + clean-drop", true, func(o bench.Options) (renderable, error) { return bench.RunWriteback(o) }},
		{"trace", "virtual-time fault-latency breakdown: per-phase p50/p90/p99 from the tracer", true, func(o bench.Options) (renderable, error) { return bench.RunTrace(o) }},
		{"arbiter", "multi-tenant arbiter vs static equal split: ghost-LRU curves drive budget rebalancing", true, func(o bench.Options) (renderable, error) { return bench.RunArbiter(o) }},
		{"market", "memory marketplace vs arbiter vs static split: SLO-aware leases on skewed/shifting/adversarial mixes", true, func(o bench.Options) (renderable, error) { return bench.RunMarket(o) }},
		{"openloop", "open-loop scenario matrix: offered load vs goodput and sojourn p99, knee of curve per planner", true, func(o bench.Options) (renderable, error) { return bench.RunOpenLoop(o) }},
		{"wall", "wall-clock ledger: the per-layer testing.B rows via `go test` (run from the module root)", true, func(o bench.Options) (renderable, error) { return bench.RunWall(o) }},
	}
}

// artifactNames lists the experiments whose JSON artifacts are committed as
// BENCH_<name>.json baselines — the expansion of the "artifacts" meta-name.
func artifactNames() []string {
	var names []string
	for _, e := range experiments() {
		if e.artifact {
			names = append(names, e.name)
		}
	}
	return names
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fluidmem-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("fluidmem-bench", flag.ContinueOnError)
	var (
		runNames = fs.String("run", "all", "comma-separated experiment names, 'all', or 'artifacts' (every experiment with a committed BENCH_<name>.json)")
		quick    = fs.Bool("quick", false, "run reduced-scale variants")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		list     = fs.Bool("list", false, "list experiments and exit")
		jsonOut  = fs.Bool("json", false, "also write BENCH_<name>.json for experiments that support it")
		ratchet  = fs.Bool("ratchet", false, "compare every metric row against the committed BENCH_<name>.json; fail on a >10% regression")
		traceOut = fs.String("trace", "", "write a Chrome trace (chrome://tracing / Perfetto) to this file, for experiments that record one")
		cpuOut   = fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memOut   = fs.String("memprofile", "", "write an allocation profile to this file when the experiments finish")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := profiling.Start(*cpuOut, *memOut)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()
	exps := experiments()
	if *list {
		for _, e := range exps {
			mark := ""
			if e.artifact {
				mark = " [artifact]"
			}
			fmt.Printf("  %-16s %s%s\n", e.name, e.desc, mark)
		}
		return nil
	}
	opts := bench.Options{Quick: *quick, Seed: *seed}
	want, err := selectExperiments(*runNames)
	if err != nil {
		return err
	}
	for _, e := range exps {
		if len(want) > 0 && !want[e.name] {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.name, e.desc)
		res, err := e.run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Println(res.Render())
		if *jsonOut {
			if v, ok := res.(validatable); ok {
				if err := v.Validate(); err != nil {
					return fmt.Errorf("%s: %w", e.name, err)
				}
			}
			j, ok := res.(jsonable)
			if !ok {
				// With an explicit -run list every named experiment is
				// expected to produce an artifact; failing loudly here is
				// what keeps a BENCH_<name>.json from silently never being
				// written (the bench-json Makefile target relies on it).
				if len(want) > 0 {
					return fmt.Errorf("%s: -json requested but this experiment produces no JSON artifact", e.name)
				}
				continue
			}
			data, err := j.JSON()
			if err != nil {
				return fmt.Errorf("%s: json: %w", e.name, err)
			}
			artifact := "BENCH_" + e.name + ".json"
			if err := os.WriteFile(artifact, append(data, '\n'), 0o644); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			fmt.Printf("wrote %s\n", artifact)
		}
		if *ratchet {
			if err := ratchetCheck(e.name, res); err != nil {
				return err
			}
		}
		if *traceOut != "" {
			tr, ok := res.(traceable)
			if !ok {
				continue
			}
			f, err := os.Create(*traceOut)
			if err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			if err := tr.WriteChromeTrace(f); err != nil {
				f.Close()
				return fmt.Errorf("%s: trace: %w", e.name, err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			fmt.Printf("wrote %s\n", *traceOut)
		}
	}
	return nil
}

// selectExperiments resolves a -run list against the registry: nil for
// "all", otherwise the set of selected names. Every name must be a registered
// experiment or the "artifacts" meta-name; a misspelt or retired name fails
// the whole invocation before anything runs, so a script never quietly
// measures less than it asked for.
func selectExperiments(spec string) (map[string]bool, error) {
	if spec == "all" {
		return nil, nil
	}
	known := make(map[string]bool)
	for _, e := range experiments() {
		known[e.name] = true
	}
	want := make(map[string]bool)
	var unknown []string
	for _, n := range strings.Split(spec, ",") {
		n = strings.TrimSpace(n)
		switch {
		case n == "artifacts":
			// Meta-name: the registry, not a Makefile string, decides
			// which experiments carry committed baselines.
			for _, a := range artifactNames() {
				want[a] = true
			}
		case known[n]:
			want[n] = true
		default:
			unknown = append(unknown, n)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("no experiment named %q (use -list)", unknown)
	}
	return want, nil
}

// ratchetCheck is the performance regression gate: every directional metric
// row of the freshly measured artifact is compared against the committed
// BENCH_<name>.json baseline, and a >10% move in the bad direction fails the
// build. Direction comes from the key: throughput-like rows (per_sec, teps,
// goodput, knee_scale) must not drop; latency-like rows (_ns suffixes, the
// cluster matrix's P50/P99/Mean/RecoveryTime/DrainTime, _pct miss rates)
// must not rise. Machine-dependent rows (wall clocks, allocation rates) are
// excluded — everything else in these artifacts is virtual time,
// bit-deterministic per seed, so on unchanged simulation logic the
// comparison is exact and a trip means the change really moved a metric; the
// gate forces that to be a deliberate, committed decision rather than drift.
// The wall ledger's allocs_per_op and bytes_per_op rows are counts at a
// fixed iteration count, machine-independent, and must not move at all.
func ratchetCheck(name string, res renderable) error {
	j, ok := res.(jsonable)
	if !ok {
		fmt.Printf("%s: ratchet: no JSON artifact; skipped\n", name)
		return nil
	}
	artifact := "BENCH_" + name + ".json"
	oldData, err := os.ReadFile(artifact)
	if err != nil {
		return fmt.Errorf("%s: ratchet: no committed baseline: %w", name, err)
	}
	newData, err := j.JSON()
	if err != nil {
		return fmt.Errorf("%s: ratchet: json: %w", name, err)
	}
	oldRows, err := metricRows(oldData)
	if err != nil {
		return fmt.Errorf("%s: ratchet: parse %s: %w", name, artifact, err)
	}
	newRows, err := metricRows(newData)
	if err != nil {
		return fmt.Errorf("%s: ratchet: parse measured result: %w", name, err)
	}
	if len(oldRows) == 0 {
		fmt.Printf("%s: ratchet: no directional metric rows in %s; skipped\n", name, artifact)
		return nil
	}
	if path, side := oneSided(oldRows, newRows); path != "" {
		return fmt.Errorf("%s: ratchet: metric rows changed: %s has %d, measured %d; first row on one side only: %s (%s) (regenerate with -json and commit)",
			name, artifact, len(oldRows), len(newRows), path, side)
	}
	var regressed []string
	for i, old := range oldRows {
		cur := newRows[i]
		if old.path != cur.path {
			return fmt.Errorf("%s: ratchet: metric row %d moved: %s has %s, measured %s (regenerate with -json and commit)",
				name, i, artifact, old.path, cur.path)
		}
		// 10% relative slack plus a small absolute floor so zero-valued
		// baselines (a 0 ns p50, an exactly-met bound) don't trip on any
		// nonzero measurement regardless of magnitude.
		tol := 0.1*math.Abs(old.val) + metricFloor(old.key)
		var worse bool
		switch {
		case old.dir == exact:
			worse = cur.val != old.val
		case old.dir > 0:
			worse = cur.val < old.val-tol
		default:
			worse = cur.val > old.val+tol
		}
		if worse {
			regressed = append(regressed, fmt.Sprintf("%s: %g -> %g", old.path, old.val, cur.val))
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%s: ratchet: %d of %d metric rows regressed against %s (threshold 10%%, none for per-op counts):\n  %s",
			name, len(regressed), len(oldRows), artifact, strings.Join(regressed, "\n  "))
	}
	fmt.Printf("%s: ratchet: %d metric rows within 10%% of %s\n", name, len(oldRows), artifact)
	return nil
}

// oneSided names the first row, in document order, that one artifact has more
// often than the other — a row added, dropped or renamed — and which side has
// it. Rows are matched by path, which carries no array index, so a row
// inserted in the middle does not make every later row look new. Both empty
// when the two hold the same rows.
func oneSided(committed, measured []metricRow) (path, side string) {
	surplus := make(map[string]int)
	for _, r := range committed {
		surplus[r.path]++
	}
	for _, r := range measured {
		surplus[r.path]--
	}
	for _, r := range committed {
		if surplus[r.path] > 0 {
			return r.path, "committed only"
		}
	}
	for _, r := range measured {
		if surplus[r.path] < 0 {
			return r.path, "measured only"
		}
	}
	return "", ""
}

// metricRow is one directional numeric field of an artifact, in document
// order. dir is +1 for higher-is-better rows, -1 for lower-is-better, and
// exact for rows that must not move. path locates the row for a reader:
// the field names down to it, [] for each array crossed, and the string
// fields that precede it in its own object, as rows[]{phase=FAULT.read}.p50_ns.
type metricRow struct {
	key  string
	path string
	val  float64
	dir  int
}

// exact is the metricDirection of rows held to equality.
const exact = 2

// metricDirection classifies an artifact key: +1 higher-is-better, -1
// lower-is-better, exact for the wall ledger's per-op counts, 0 not a
// performance metric (config echoes, counts, and machine-dependent
// measurements like wall clocks or allocation rates).
func metricDirection(key string) int {
	if key == "allocs_per_op" || key == "bytes_per_op" {
		return exact
	}
	lk := strings.ToLower(key)
	for _, skip := range []string{"wall", "alloc", "seed"} {
		if strings.Contains(lk, skip) {
			return 0
		}
	}
	switch {
	case strings.Contains(lk, "per_sec"), strings.Contains(lk, "teps"), key == "knee_scale":
		return +1
	case strings.HasSuffix(lk, "_ns"), strings.HasSuffix(lk, "_pct"):
		return -1
	}
	switch key {
	// The cluster lifecycle matrix predates the _ns suffix convention.
	case "Mean", "P50", "P99", "RecoveryTime", "DrainTime":
		return -1
	}
	return 0
}

// metricFloor is the absolute slack added to the 10% relative tolerance.
func metricFloor(key string) float64 {
	lk := strings.ToLower(key)
	switch {
	case strings.HasSuffix(lk, "_ns"):
		return 200 // nanoseconds of virtual time
	case strings.HasSuffix(lk, "_pct"):
		return 0.5 // percentage points
	default:
		return 1e-9
	}
}

// metricRows extracts every directional numeric field from a JSON document,
// in document order, at any nesting depth. Token-level scanning (rather than
// unmarshalling into a map) keeps the order stable so old and new artifacts
// compare row-for-row; numbers inside arrays carry no key of their own
// (spans, sweep lists) and are never collected.
func metricRows(data []byte) ([]metricRow, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var out []metricRow
	if _, err := scanValue(dec, "", "", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// scanValue consumes one JSON value from dec; key names the object field the
// value belongs to ("" for array elements and the document root) and path
// locates it. A string value is returned, for the enclosing object's label.
func scanValue(dec *json.Decoder, key, path string, out *[]metricRow) (string, error) {
	t, err := dec.Token()
	if err != nil {
		return "", err
	}
	switch tok := t.(type) {
	case json.Delim:
		switch tok {
		case '{':
			var label []string
			for dec.More() {
				kt, err := dec.Token()
				if err != nil {
					return "", err
				}
				k, _ := kt.(string)
				field := path
				if len(label) > 0 {
					field += "{" + strings.Join(label, ",") + "}"
				}
				if field != "" {
					field += "."
				}
				str, err := scanValue(dec, k, field+k, out)
				if err != nil {
					return "", err
				}
				if str != "" {
					label = append(label, k+"="+str)
				}
			}
			_, err := dec.Token() // closing brace
			return "", err
		case '[':
			for dec.More() {
				if _, err := scanValue(dec, "", path+"[]", out); err != nil {
					return "", err
				}
			}
			_, err := dec.Token() // closing bracket
			return "", err
		}
	case string:
		return tok, nil
	case float64:
		if dir := metricDirection(key); key != "" && dir != 0 {
			*out = append(*out, metricRow{key: key, path: path, val: tok, dir: dir})
		}
	}
	return "", nil
}
