package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fluidmem/internal/trace"
)

// TestTraceBreakdownRows pins the experiment's acceptance shape: the merged
// FAULT row carries plausible percentiles, the per-path FAULT.* rows split
// it, and the pipeline-stage phases (store, UFFD, eviction, flush) are all
// present with non-zero counts.
func TestTraceBreakdownRows(t *testing.T) {
	res, err := RunTrace(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 || res.Digest == 0 {
		t.Fatalf("vacuous trace run: %d events, digest %#x", res.Events, res.Digest)
	}
	merged := map[string]TraceRow{}
	workerRows := 0
	for _, row := range res.Rows {
		if row.Worker == trace.MergedWorker {
			merged[row.Phase] = row
		} else {
			workerRows++
		}
	}
	for _, phase := range []string{
		trace.EvFault, "FAULT.first_touch", "FAULT.batched_read",
		trace.EvStoreMultiGet, trace.EvStoreMultiPut, trace.EvFlush,
		trace.EvEvict, trace.EvUffdCopy, trace.EvUffdZeroPage,
	} {
		row, ok := merged[phase]
		if !ok || row.Count == 0 {
			t.Errorf("phase %s missing or empty in breakdown", phase)
			continue
		}
		if row.P50ns <= 0 || row.P50ns > row.P90ns || row.P90ns > row.P99ns || row.P99ns > row.MaxNs {
			t.Errorf("phase %s percentiles not monotone: %+v", phase, row)
		}
	}
	if workerRows == 0 {
		t.Error("no per-worker rows in the breakdown")
	}
	// The per-path split must account for every demand fault.
	var pathSum uint64
	for phase, row := range merged {
		if strings.HasPrefix(phase, "FAULT.") {
			pathSum += row.Count
		}
	}
	if fault := merged[trace.EvFault]; pathSum != fault.Count {
		t.Errorf("FAULT.* path rows sum to %d, FAULT counts %d", pathSum, fault.Count)
	}
}

// TestTraceDeterministicArtifacts pins the reproducibility contract at the
// bench level: same seed, same JSON artifact and same Chrome-trace bytes.
func TestTraceDeterministicArtifacts(t *testing.T) {
	a, err := RunTrace(Options{Quick: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrace(Options{Quick: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Error("same seed produced different BENCH_trace.json artifacts")
	}
	var ta, tb bytes.Buffer
	if err := a.WriteChromeTrace(&ta); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if ta.Len() == 0 || !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Errorf("same seed produced different Chrome traces (%d vs %d bytes)", ta.Len(), tb.Len())
	}
	// And the artifact is valid JSON with the documented row fields.
	var decoded struct {
		Rows []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(ja, &decoded); err != nil {
		t.Fatalf("BENCH_trace.json is not valid JSON: %v", err)
	}
	if len(decoded.Rows) == 0 {
		t.Fatal("BENCH_trace.json has no rows")
	}
	for _, key := range []string{"phase", "worker", "count", "p50_ns", "p90_ns", "p99_ns", "max_ns"} {
		if _, ok := decoded.Rows[0][key]; !ok {
			t.Errorf("BENCH_trace.json rows missing %q", key)
		}
	}
}
