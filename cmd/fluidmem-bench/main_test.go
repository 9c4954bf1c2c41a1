package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// captureRun calls run(args) with os.Stdout redirected to a file and returns
// what it printed.
func captureRun(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	runErr := run(args)
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

func TestListFlag(t *testing.T) {
	out, err := captureRun(t, "-list")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "table1") {
		t.Fatalf("-list does not print table1:\n%s", out)
	}
	if strings.Contains(out, "parallel") {
		t.Fatalf("-list still prints the deleted parallel experiment:\n%s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "nonsense"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// Every name in a -run list must resolve: an unknown name next to a known
// one used to be skipped silently, so a script naming a retired experiment
// measured nothing and exited 0.
func TestSelectExperiments(t *testing.T) {
	cases := []struct {
		spec    string
		want    []string // nil = every experiment
		unknown string   // non-empty = must fail naming this
	}{
		{spec: "all"},
		{spec: "table1", want: []string{"table1"}},
		{spec: "table1, fig3", want: []string{"fig3", "table1"}},
		{spec: "artifacts", want: artifactNames()},
		{spec: "artifacts,table1", want: append(artifactNames(), "table1")},
		{spec: "nosuch", unknown: "nosuch"},
		{spec: "nosuch,table1", unknown: "nosuch"},
		{spec: "table1,nosuch", unknown: "nosuch"},
		{spec: "artifacts,parallel", unknown: "parallel"},
		{spec: "all,table1", unknown: "all"},
		{spec: "table1,", unknown: `""`},
		{spec: "", unknown: `""`},
	}
	for _, c := range cases {
		got, err := selectExperiments(c.spec)
		if c.unknown != "" {
			if err == nil {
				t.Errorf("-run %q accepted, want an error naming %s", c.spec, c.unknown)
			} else if !strings.Contains(err.Error(), c.unknown) || !strings.Contains(err.Error(), "-list") {
				t.Errorf("-run %q: error %q does not name %s with the -list hint", c.spec, err, c.unknown)
			}
			continue
		}
		if err != nil {
			t.Errorf("-run %q: %v", c.spec, err)
			continue
		}
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		want := append([]string(nil), c.want...)
		sort.Strings(want)
		if strings.Join(names, ",") != strings.Join(want, ",") {
			t.Errorf("-run %q selected %v, want %v", c.spec, names, want)
		}
	}
	// The rejection happens before anything runs: no experiment header is
	// printed for the valid name sharing the list.
	out, err := captureRun(t, "-quick", "-run", "nosuch,table1")
	if err == nil {
		t.Fatal("-run nosuch,table1 exited 0")
	}
	if strings.Contains(out, "===") {
		t.Fatalf("an experiment ran before the unknown name was rejected:\n%s", out)
	}
}

// The registry's artifact flags and the committed baselines must agree in
// both directions: a BENCH_<name>.json at the module root without a registry
// row is never re-measured by bench-ratchet (an orphan), and an artifact
// experiment without its file has no baseline to ratchet against.
func TestArtifactsMatchCommittedBaselines(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	committed := make(map[string]bool)
	for _, f := range files {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json")
		committed[name] = true
	}
	registered := make(map[string]bool)
	for _, name := range artifactNames() {
		registered[name] = true
		if !committed[name] {
			t.Errorf("artifact experiment %q has no committed BENCH_%s.json (run `make bench-json`)", name, name)
		}
	}
	for name := range committed {
		if !registered[name] {
			t.Errorf("BENCH_%s.json is committed but no experiment in the registry is marked artifact under that name", name)
		}
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestQuickSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment still takes seconds")
	}
	if err := run([]string{"-quick", "-run", "table1"}); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range experiments() {
		if seen[e.name] {
			t.Fatalf("duplicate experiment %q", e.name)
		}
		seen[e.name] = true
		if e.desc == "" {
			t.Fatalf("experiment %q lacks a description", e.name)
		}
	}
	// Every paper table/figure must be present.
	for _, want := range []string{"fig3", "fig4", "fig5", "table1", "table2", "table3"} {
		if !seen[want] {
			t.Fatalf("missing experiment %q", want)
		}
	}
	// "artifacts" and "all" are reserved meta-names — they must not collide
	// with a real experiment (TestArtifactsMatchCommittedBaselines checks
	// what "artifacts" expands to).
	for _, meta := range []string{"artifacts", "all"} {
		if seen[meta] {
			t.Fatalf("an experiment is literally named %q", meta)
		}
	}
}

func TestMetricRowsExtraction(t *testing.T) {
	doc := []byte(`{
		"meta": {"faults_per_sec": 100.5, "seed": 42, "wall_ms": 17},
		"rows": [
			{"label": "a", "faults_per_sec": 1.25, "sojourn_p99_ns": 900, "other": 7},
			{"label": "b", "nested": {"goodput_per_sec": 2.5}, "miss_pct": 3.5},
			{"label": "c", "scales": [0.5, 1, 8], "allocs_per_fault": 0}
		],
		"knee_scale": 4
	}`)
	rows, err := metricRows(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := []metricRow{
		{key: "faults_per_sec", path: "meta.faults_per_sec", val: 100.5, dir: +1},
		{key: "faults_per_sec", path: "rows[]{label=a}.faults_per_sec", val: 1.25, dir: +1},
		{key: "sojourn_p99_ns", path: "rows[]{label=a}.sojourn_p99_ns", val: 900, dir: -1},
		{key: "goodput_per_sec", path: "rows[]{label=b}.nested.goodput_per_sec", val: 2.5, dir: +1},
		{key: "miss_pct", path: "rows[]{label=b}.miss_pct", val: 3.5, dir: -1},
		{key: "knee_scale", path: "knee_scale", val: 4, dir: +1},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %+v, want %+v", rows, want)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("row %d = %+v, want %+v (document order, seed/wall/alloc/array values excluded)",
				i, rows[i], want[i])
		}
	}
}

func TestMetricDirection(t *testing.T) {
	cases := []struct {
		key  string
		want int
	}{
		{"faults_per_sec", +1}, {"teps", +1}, {"knee_scale", +1},
		{"sojourn_p99_ns", -1}, {"backlog_ns", -1}, {"miss_pct", -1},
		{"P99", -1}, {"RecoveryTime", -1},
		{"wall_ms", 0}, {"allocs_per_fault", 0},
		// The wall ledger's per-op counts are held to equality.
		{"allocs_per_op", exact}, {"bytes_per_op", exact}, {"wall_ns_per_op", 0},
		{"seed", 0}, {"epochs", 0}, {"label", 0},
		// Machine-dependent markers win over directional suffixes.
		{"wall_p99_ns", 0},
	}
	for _, c := range cases {
		if got := metricDirection(c.key); got != c.want {
			t.Errorf("metricDirection(%q) = %d, want %d", c.key, got, c.want)
		}
	}
}

// fakeThroughputResult lets ratchet tests control the "measured" JSON.
type fakeThroughputResult struct{ doc string }

func (f *fakeThroughputResult) Render() string        { return "fake" }
func (f *fakeThroughputResult) JSON() ([]byte, error) { return []byte(f.doc), nil }

func TestRatchetCheck(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	baseline := `{"rows":[{"faults_per_sec":1000,"p99_ns":5000},{"faults_per_sec":2000}]}`
	if err := os.WriteFile("BENCH_fake.json", []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}

	// Identical rows pass.
	if err := ratchetCheck("fake", &fakeThroughputResult{doc: baseline}); err != nil {
		t.Fatalf("identical rows rejected: %v", err)
	}
	// Small (<10%) moves in the bad direction pass, as does any improvement.
	ok := `{"rows":[{"faults_per_sec":950,"p99_ns":5400},{"faults_per_sec":2600}]}`
	if err := ratchetCheck("fake", &fakeThroughputResult{doc: ok}); err != nil {
		t.Fatalf("5%% dip rejected: %v", err)
	}
	// A >10% throughput drop in any row fails.
	bad := `{"rows":[{"faults_per_sec":1000,"p99_ns":5000},{"faults_per_sec":1500}]}`
	if err := ratchetCheck("fake", &fakeThroughputResult{doc: bad}); err == nil {
		t.Fatal("25% throughput regression accepted")
	}
	// A >10% latency rise fails too — the ratchet is direction-aware, so a
	// latency row regresses by going UP.
	slow := `{"rows":[{"faults_per_sec":1000,"p99_ns":7000},{"faults_per_sec":2000}]}`
	if err := ratchetCheck("fake", &fakeThroughputResult{doc: slow}); err == nil {
		t.Fatal("40% latency regression accepted")
	}
	// A latency *improvement* of any size passes (no ratchet on the good side).
	fast := `{"rows":[{"faults_per_sec":1000,"p99_ns":100},{"faults_per_sec":2000}]}`
	if err := ratchetCheck("fake", &fakeThroughputResult{doc: fast}); err != nil {
		t.Fatalf("latency improvement rejected: %v", err)
	}
	// A zero-valued latency baseline tolerates only the absolute floor.
	zeroBase := `{"rows":[{"p50_ns":0}]}`
	if err := os.WriteFile("BENCH_zero.json", []byte(zeroBase), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ratchetCheck("zero", &fakeThroughputResult{doc: `{"rows":[{"p50_ns":150}]}`}); err != nil {
		t.Fatalf("sub-floor rise over zero baseline rejected: %v", err)
	}
	if err := ratchetCheck("zero", &fakeThroughputResult{doc: `{"rows":[{"p50_ns":5000}]}`}); err == nil {
		t.Fatal("5µs rise over a 0ns baseline accepted")
	}
	// Per-op counts move in neither direction, not even by one.
	counts := `{"rows":[{"wall_ns_per_op":100,"bytes_per_op":43,"allocs_per_op":0}]}`
	if err := os.WriteFile("BENCH_counts.json", []byte(counts), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ratchetCheck("counts", &fakeThroughputResult{doc: `{"rows":[{"wall_ns_per_op":900,"bytes_per_op":43,"allocs_per_op":0}]}`}); err != nil {
		t.Fatalf("wall-time move with unchanged counts rejected: %v", err)
	}
	for _, moved := range []string{
		`{"rows":[{"wall_ns_per_op":100,"bytes_per_op":43,"allocs_per_op":1}]}`,
		`{"rows":[{"wall_ns_per_op":100,"bytes_per_op":42,"allocs_per_op":0}]}`,
	} {
		if err := ratchetCheck("counts", &fakeThroughputResult{doc: moved}); err == nil {
			t.Fatalf("moved per-op count accepted: %s", moved)
		}
	}
	// Row-count drift fails: the committed artifact is stale. The error names
	// the first row only one side has, so nobody diffs JSON by hand.
	drift := `{"rows":[{"faults_per_sec":1000,"p99_ns":5000}]}`
	if err := ratchetCheck("fake", &fakeThroughputResult{doc: drift}); err == nil || !strings.Contains(err.Error(), "rows[].faults_per_sec (committed only)") {
		t.Fatalf("row-count drift: %v", err)
	}
	// So does a renamed metric, and a row whose identifying string changed.
	renamed := `{"rows":[{"faults_per_sec":1000,"p98_ns":5000},{"faults_per_sec":2000}]}`
	if err := ratchetCheck("fake", &fakeThroughputResult{doc: renamed}); err == nil || !strings.Contains(err.Error(), "rows[].p99_ns (committed only)") {
		t.Fatalf("metric rename: %v", err)
	}
	if err := os.WriteFile("BENCH_phases.json", []byte(`{"rows":[{"phase":"FAULT","p50_ns":5},{"phase":"FAULT.read","p50_ns":9}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	relabelled := `{"rows":[{"phase":"FAULT","p50_ns":5},{"phase":"FAULT.batched_read","p50_ns":9}]}`
	if err := ratchetCheck("phases", &fakeThroughputResult{doc: relabelled}); err == nil || !strings.Contains(err.Error(), "rows[]{phase=FAULT.read}.p50_ns (committed only)") {
		t.Fatalf("relabelled row: %v", err)
	}
	// A missing committed baseline fails loudly.
	if err := ratchetCheck("absent", &fakeThroughputResult{doc: baseline}); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

// A regressed row is named by its path, and every regressed row of the
// artifact is listed, not only the first, so one run audits a regeneration.
func TestRatchetNamesEveryRegressedRow(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	baseline := `{"rows":[{"phase":"FAULT","p99_ns":5000},{"phase":"EVICT","p99_ns":6813},{"phase":"STORE","p99_ns":900}],"faults_per_sec":100}`
	if err := os.WriteFile("BENCH_phases.json", []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	measured := `{"rows":[{"phase":"FAULT","p99_ns":5100},{"phase":"EVICT","p99_ns":9303},{"phase":"STORE","p99_ns":900}],"faults_per_sec":80}`
	err = ratchetCheck("phases", &fakeThroughputResult{doc: measured})
	if err == nil {
		t.Fatal("two regressed rows accepted")
	}
	for _, want := range []string{
		"2 of 4 metric rows regressed",
		"rows[]{phase=EVICT}.p99_ns: 6813 -> 9303",
		"faults_per_sec: 100 -> 80",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("ratchet error does not say %q:\n%v", want, err)
		}
	}
	if strings.Contains(err.Error(), "phase=FAULT") || strings.Contains(err.Error(), "row 1") {
		t.Errorf("ratchet error names a row within bounds, or a row by index:\n%v", err)
	}
}

func TestJSONFlagFailsLoudlyWithoutArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick experiment")
	}
	// workers renders a table but has no JSON artifact: naming it explicitly
	// with -json must be an error, not a silent skip.
	if err := run([]string{"-quick", "-run", "workers", "-json"}); err == nil {
		t.Fatal("-json with a non-jsonable experiment silently succeeded")
	}
}
