package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json is generated (`fmbench -describe`); the committed file must
// be what the tables in metrics.go say.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `fmbench -describe`; regenerate it")
	}
}

func TestMetricTablesMeetTheContract(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(workloads))
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1 to 200", w.name, len(w.why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end", m.name)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.name, m.bound)
		}
		if m.name == "setup_s" {
			hasSetup = m.unit == "s" && m.better == lower
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics need setup_s in s, lower is better")
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q", m.name, m.unit)
		}
		if m.better != lower && m.better != higher {
			t.Errorf("%s: better %q", m.name, m.better)
		}
	}
	for _, m := range perLayer {
		check("per-layer", m.name)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}

// checkOutcome holds one result line to the contract: exactly the declared
// metrics, each once, with its unit, none NaN or infinite.
func checkOutcome(t *testing.T, what string, out *outcome, defs []metricDef, nonZero bool) {
	t.Helper()
	line, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var back struct {
		Correct   bool
		Attempted uint64
		Failed    uint64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatalf("%s: result line does not parse: %v", what, err)
	}
	if !back.Correct || back.Failed != 0 || back.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, back.Correct, back.Attempted, back.Failed)
	}
	if len(back.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, %d declared", what, len(back.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := back.Metrics[d.name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("%s: %s in %q, declared %q", what, d.name, m.Unit, d.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (nonZero && m.Value <= 0) {
			t.Errorf("%s: %s = %v", what, d.name, m.Value)
		}
	}
}

// appliesTo lists, per workload, per-layer metrics that must be live there: a
// miniature that reports 0 for one of these is not exercising its layer.
var appliesTo = map[string][]string{
	"pmbench_ramcloud": {"virt_op_p999_us", "virt_err_vs_paper_pct", "core.remote_reads", "core.steals", "core.writeback.pages_per_flush",
		"kvstore.multiputs", "kvstore.startget.calls", "kvstore.multiput.wall_ns", "fluidmem.touch.self_ns_per_op", "harness.wall_ns_per_op"},
	"cluster_failover": {"core.clean_dropped", "core.zero_elided", "core.wp_faults", "core.resilience.ops", "kvstore.cluster.failovers",
		"kvstore.cluster.rereplicated", "kvstore.cluster.partial_puts", "kvstore.cluster.recover.virt_ms", "kvstore.cluster.recover.wall_ms"},
	"openloop_diurnal": {"host.epochs", "host.slo_windows", "loadgen.offered_ops", "loadgen.sojourn_p99_us.x1", "loadgen.sojourn_p99_us.x4",
		"loadgen.run.wall_s.x2", "loadgen.run.wall_s.static_x1", "virt_goodput_per_sec.x4"},
	"graph500_s16": {"virt_teps", "graph500.accesses", "graph500.traversal_virt_ms", "graph500.run.wall_s", "core.hit_pct"},
}

func TestMiniaturesEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		timed, reps, err := runTimed(w, 3, miniSizes, 0, 2, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkOutcome(t, w.name+" end-to-end", timed, endToEnd, true)
		if len(reps) != 2 || len(diffDet(reps[0], reps[1])) != 0 {
			t.Errorf("%s: two repetitions on one seed must agree on every virtual-time result", w.name)
		}

		traced, err := runTraced(w, 3, miniSizes, 2000, t.TempDir(), io.Discard)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkOutcome(t, w.name+" per-layer", traced, perLayer, false)
		for _, name := range appliesTo[w.name] {
			if traced.Metrics[name].Value == 0 {
				t.Errorf("%s: %s reads 0", w.name, name)
			}
		}
		for _, row := range ledgerRows { // the ledger applies everywhere
			if m, ok := traced.Metrics[row.ns]; !ok || m.Value <= 0 {
				t.Errorf("%s: ledger row %s = %v (declared: %v)", w.name, row.ns, m.Value, ok)
			}
			if _, ok := traced.Metrics[row.allocs]; row.allocs != "" && !ok {
				t.Errorf("%s: ledger row %s is not a declared metric", w.name, row.allocs)
			}
		}
	}
}

func TestRunPrintsResultLineLast(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-describe"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-describe exited %d: %s", code, stderr.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("-describe output is not JSON: %v", err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("-describe output lacks %q", key)
		}
	}
	if len(doc) != 6 {
		t.Errorf("-describe output has %d keys, want exactly 6", len(doc))
	}
	stdout.Reset()
	if code := run([]string{"-workload", "nosuch"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload must not exit 0")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 37, 11, 16, 22, 29})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}
