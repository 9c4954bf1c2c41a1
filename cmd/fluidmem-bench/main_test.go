package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.txt from the current experiments")

func TestListFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "table1") {
		t.Fatalf("-list does not print table1:\n%s", out.String())
	}
	if strings.Contains(out.String(), "parallel") {
		t.Fatalf("-list still prints the deleted parallel experiment:\n%s", out.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "nonsense"}, io.Discard); err == nil {
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
	var out bytes.Buffer
	if err := run([]string{"-quick", "-run", "nosuch,table1"}, &out); err == nil {
		t.Fatal("-run nosuch,table1 exited 0")
	}
	if strings.Contains(out.String(), "===") {
		t.Fatalf("an experiment ran before the unknown name was rejected:\n%s", out.String())
	}
}

var (
	// jsonKey matches every key of a JSON document.
	jsonKey = regexp.MustCompile(`"([^"]*)"\s*:`)
	// snakeCase is the one key spelling the artifacts use.
	snakeCase = regexp.MustCompile(`^[a-z0-9_]+$`)
	// hostTime matches a key naming host time.
	hostTime = regexp.MustCompile(`wall|calib`)
)

// The registry's artifact flags and the committed baselines must agree in
// both directions: a BENCH_<name>.json at the module root without a registry
// row is never re-measured by bench-ratchet (an orphan), and an artifact
// experiment without its file has no baseline to ratchet against. A committed
// artifact holds only what the seed determines: a key naming host time would
// differ on every run and trip the byte-for-byte ratchet. Every key is
// snake_case, one schema across the artifacts.
func TestArtifactsMatchCommittedBaselines(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	committed := make(map[string]bool)
	for _, f := range files {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json")
		committed[name] = true
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var notSnake []string
		for _, m := range jsonKey.FindAllSubmatch(data, -1) {
			key := string(m[1])
			if hostTime.MatchString(key) {
				t.Errorf("%s has the host-time key %q; the ratchet holds artifacts byte for byte, so they carry no host time", filepath.Base(f), key)
			}
			if !snakeCase.MatchString(key) {
				notSnake = append(notSnake, key)
			}
		}
		if len(notSnake) > 0 {
			t.Errorf("%s has %d keys that are not snake_case (^[a-z0-9_]+$), first %q", filepath.Base(f), len(notSnake), notSnake[0])
		}
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
	if err := run([]string{"-definitely-not-a-flag"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestQuickSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment still takes seconds")
	}
	if err := run([]string{"-quick", "-run", "table1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// Every experiment's -quick stdout at seed 1 is pinned byte for byte, so
// stdout depends on nothing but flags and seed; a change to any number or
// line must be deliberate (go test ./cmd/fluidmem-bench -run
// TestQuickTranscripts -update rewrites testdata/quick.txt). wall is left
// out: its table prints host time.
func TestQuickTranscripts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at quick scale")
	}
	var names []string
	for _, e := range experiments() {
		if e.name != "wall" {
			names = append(names, e.name)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-quick", "-seed", "1", "-run", strings.Join(names, ",")}, &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "quick.txt")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, pinned := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(got), len(pinned)); i++ {
		if lineAt(got, i) != lineAt(pinned, i) {
			t.Fatalf("stdout differs from %s at line %d:\n  pinned: %s\n  now:    %s", path, i+1, lineAt(pinned, i), lineAt(got, i))
		}
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

// inTempDir runs the rest of the test in a fresh directory, where the
// committed baselines the ratchet reads are whatever the test writes.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// One rule: the measured artifact equals the committed one byte for byte.
// Every kind of edit fails, however small, and names the first line it moved.
func TestRatchetCheck(t *testing.T) {
	inTempDir(t)
	measured := `{
  "savings_pct": 80,
  "arbiter_wins": true,
  "rows": [
    {
      "phase": "FAULT.read",
      "faults": 1000
    },
    {
      "phase": "EVICT",
      "faults": 2000
    }
  ]
}`
	if err := os.WriteFile("BENCH_fake.json", []byte(measured+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ratchetCheck(io.Discard, "fake", []byte(measured+"\n")); err != nil {
		t.Fatalf("identical artifact rejected: %v", err)
	}
	cases := []struct {
		name, from, to string
		line           int
	}{
		{"a 1-unit move of a number", `"faults": 1000`, `"faults": 1001`, 7},
		{"a 5% rise of a _pct value", `"savings_pct": 80`, `"savings_pct": 84`, 2},
		{"a flipped boolean", `"arbiter_wins": true`, `"arbiter_wins": false`, 3},
		{"a relabelled string", `"phase": "FAULT.read"`, `"phase": "FAULT.batched_read"`, 6},
		{"an added row", "    }\n  ]", "    },\n    {\n      \"phase\": \"STORE\"\n    }\n  ]", 12},
		{"a removed row", "    },\n    {\n      \"phase\": \"EVICT\",\n      \"faults\": 2000\n    }", "    }", 8},
	}
	for _, c := range cases {
		doc := strings.Replace(measured, c.from, c.to, 1)
		if doc == measured {
			t.Fatalf("%s: edit %q not found", c.name, c.from)
		}
		err := ratchetCheck(io.Discard, "fake", []byte(doc+"\n"))
		if err == nil {
			t.Errorf("%s accepted", c.name)
			continue
		}
		committedLine := strings.Split(measured, "\n")[c.line-1]
		for _, want := range []string{fmt.Sprintf("first at line %d:", c.line), "committed: " + committedLine, "-run fake -json"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error does not say %q:\n%v", c.name, want, err)
			}
		}
	}
	if err := ratchetCheck(io.Discard, "absent", []byte(measured+"\n")); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

// -json writes BENCH_<name>.json before -ratchet would read it back, so the
// pair would compare each artifact with itself and pass any regression.
func TestJSONWithRatchetRefused(t *testing.T) {
	inTempDir(t)
	const wrong = "{}\n"
	if err := os.WriteFile("BENCH_cluster.json", []byte(wrong), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-quick", "-run", "cluster", "-json", "-ratchet"}, io.Discard); err == nil {
		t.Fatal("-json -ratchet passed against a wrong committed BENCH_cluster.json")
	}
	if got, _ := os.ReadFile("BENCH_cluster.json"); string(got) != wrong {
		t.Fatalf("refused run still rewrote BENCH_cluster.json:\n%s", got)
	}
}

// The registry's artifact flag is the one rule: naming an experiment without
// a committed artifact under -json or -ratchet is an error before anything
// runs, not a silent skip.
func TestJSONFlagFailsLoudlyWithoutArtifact(t *testing.T) {
	for _, flag := range []string{"-json", "-ratchet"} {
		var out bytes.Buffer
		if err := run([]string{"-quick", "-run", "workers", flag}, &out); err == nil {
			t.Errorf("%s with the artifact-less workers experiment succeeded", flag)
		}
		if strings.Contains(out.String(), "===") {
			t.Errorf("%s: workers ran before it was refused:\n%s", flag, out.String())
		}
	}
}
