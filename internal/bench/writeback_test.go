package bench

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestWritebackCrossover pins the PR's two acceptance criteria on the
// reduced-scale run: batched MultiPut flushes must strictly beat per-page
// synchronous Puts on fault throughput, and the dirty-aware elisions must
// remove at least 30% of the store writes the batched row still ships.
func TestWritebackCrossover(t *testing.T) {
	res, err := RunWriteback(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(res.Rows))
	}
	perPage, batched, elide := res.Rows[0], res.Rows[1], res.Rows[2]

	if batched.Throughput <= perPage.Throughput {
		t.Errorf("MultiPut batching did not improve throughput: %.0f <= %.0f faults/sec",
			batched.Throughput, perPage.Throughput)
	}
	if batched.MultiPuts == 0 {
		t.Errorf("batched row never issued a MultiPut: %+v", batched)
	}
	if perPage.MultiPuts != 0 {
		t.Errorf("per-page row issued %d MultiPuts; writes should be synchronous", perPage.MultiPuts)
	}

	// The elision row replays the identical op stream, so every store write
	// it avoids is measured against the same eviction pressure.
	if elide.StorePuts > batched.StorePuts*7/10 {
		t.Errorf("elide+drop kept %d of %d store puts; need a >=30%% drop",
			elide.StorePuts, batched.StorePuts)
	}
	if elide.ZeroElided == 0 || elide.CleanDropped == 0 {
		t.Errorf("elision row never exercised both elisions: %+v", elide)
	}
	if batched.ZeroElided != 0 || batched.CleanDropped != 0 {
		t.Errorf("batched row elided with the feature off: %+v", batched)
	}
	// Elision must not cost throughput either: the third row should be at
	// least as fast as per-page writes (in practice faster than batched too,
	// since elided evictions skip the write path entirely).
	if elide.Throughput <= perPage.Throughput {
		t.Errorf("elide+drop slower than per-page puts: %.0f <= %.0f faults/sec",
			elide.Throughput, perPage.Throughput)
	}
}

// TestWritebackJSONRoundTrip keeps the BENCH_writeback.json schema
// lossless: the artifact decodes back to the result it was written from, so
// every field the table prints is one the ratchet holds.
func TestWritebackJSONRoundTrip(t *testing.T) {
	res, err := RunWriteback(Options{Quick: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back WritebackResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res, back) {
		t.Errorf("artifact does not round-trip:\nran     %+v\ndecoded %+v", *res, back)
	}
}
