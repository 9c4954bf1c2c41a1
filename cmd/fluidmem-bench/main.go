// Command fluidmem-bench regenerates the paper's evaluation tables and
// figures (§VI) plus the DESIGN.md ablations, printing paper-style text
// tables. Run with -list to see experiment names.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
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
		ratchet  = fs.Bool("ratchet", false, "fail unless each artifact equals the committed BENCH_<name>.json byte for byte")
		traceOut = fs.String("trace", "", "write a Chrome trace (chrome://tracing / Perfetto) to this file, for experiments that record one")
		cpuOut   = fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memOut   = fs.String("memprofile", "", "write an allocation profile to this file when the experiments finish")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonOut && *ratchet {
		// -json writes BENCH_<name>.json before -ratchet reads it back, so
		// together they would compare each artifact with itself.
		return fmt.Errorf("-json and -ratchet cannot be combined: check with -ratchet, then regenerate with -json")
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

// ratchetCheck is the regression gate: the freshly measured artifact,
// serialised exactly as -json writes it, must equal the committed
// BENCH_<name>.json byte for byte. Every field of every artifact is
// deterministic per seed (virtual time, counts, verdicts, digests, and the wall
// ledger's per-op allocation counts at a fixed iteration count), so on
// unchanged logic the two are identical, and any moved number, flipped verdict
// or added row has to be a named regeneration whose git diff shows each
// changed line in context.
func ratchetCheck(name string, res renderable) error {
	j, ok := res.(jsonable)
	if !ok {
		fmt.Printf("%s: ratchet: no JSON artifact; skipped\n", name)
		return nil
	}
	artifact := "BENCH_" + name + ".json"
	committed, err := os.ReadFile(artifact)
	if err != nil {
		return fmt.Errorf("%s: ratchet: no committed baseline: %w", name, err)
	}
	data, err := j.JSON()
	if err != nil {
		return fmt.Errorf("%s: ratchet: json: %w", name, err)
	}
	measured := append(data, '\n')
	if bytes.Equal(committed, measured) {
		fmt.Printf("%s: ratchet: %s matches byte for byte\n", name, artifact)
		return nil
	}
	old, cur := strings.Split(string(committed), "\n"), strings.Split(string(measured), "\n")
	differ, first := 0, 0
	for i := 0; i < max(len(old), len(cur)); i++ {
		if lineAt(old, i) != lineAt(cur, i) {
			differ++
			if first == 0 {
				first = i + 1
			}
		}
	}
	return fmt.Errorf("%s: ratchet: %s differs from the measured artifact on %d of %d lines; first at line %d:\n  committed: %s\n  measured:  %s\nregenerate with -run %s -json and review the change with git diff",
		name, artifact, differ, max(len(old), len(cur)), first, lineAt(old, first-1), lineAt(cur, first-1), name)
}

// lineAt is line i of a split document, or a marker past its end.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(past the end)"
}
