package market_test

import (
	"testing"
	"time"

	"fluidmem/internal/market"
	"fluidmem/internal/stats"
	"fluidmem/internal/trace"
)

func TestEvaluateSLOBasics(t *testing.T) {
	var cum stats.Histogram
	for _, d := range []time.Duration{time.Microsecond, 2 * time.Microsecond, time.Millisecond} {
		cum.Add(d)
	}
	// No target: reported but never evaluated.
	v := market.EvaluateSLO(0, cum, stats.Histogram{})
	if v.Evaluated || v.Violated {
		t.Fatalf("target-less verdict evaluated: %+v", v)
	}
	if v.Faults != 3 || v.P99 == 0 {
		t.Fatalf("verdict = %+v", v)
	}
	// Tight target: the ms outlier blows the p99.
	v = market.EvaluateSLO(10*time.Microsecond, cum, stats.Histogram{})
	if !v.Evaluated || !v.Violated {
		t.Fatalf("verdict = %+v, want violated", v)
	}
	// Loose target: met.
	v = market.EvaluateSLO(time.Second, cum, stats.Histogram{})
	if !v.Evaluated || v.Violated {
		t.Fatalf("verdict = %+v, want met", v)
	}
	// Empty window (cum == prev): vacuously met even with a target.
	v = market.EvaluateSLO(time.Nanosecond, cum, cum)
	if v.Faults != 0 || v.Violated {
		t.Fatalf("empty-window verdict = %+v", v)
	}
}

// synthDur derives a deterministic fault latency from a page address: a
// spread of magnitudes from ~1µs to ~4ms so windows have real tails.
func synthDur(addr uint64) time.Duration {
	x := addr * 2654435761 // Knuth multiplicative hash
	return time.Duration(1+(x>>12)%4096) * time.Microsecond
}

// The SLO verdict must be a pure function of the multiset of fault
// durations: partitioning the same observations across 1, 2, 4, or 8
// per-worker histogram cells — by round-robin or by address hash — cannot
// change the merged evaluation.
func TestEvaluateSLOWorkerPartitionInvariance(t *testing.T) {
	var durs []time.Duration
	for i := uint64(0); i < 5000; i++ {
		durs = append(durs, synthDur(i*4096))
	}
	target := 2 * time.Millisecond

	evaluate := func(workers int, byHash bool) market.SLOVerdict {
		cells := make([]stats.Histogram, workers)
		for i, d := range durs {
			w := i % workers
			if byHash {
				w = int((uint64(i) * 0x9e3779b97f4a7c15) % uint64(workers))
			}
			cells[w].Add(d)
		}
		var merged stats.Histogram
		for i := range cells {
			merged.Merge(&cells[i])
		}
		return market.EvaluateSLO(target, merged, stats.Histogram{})
	}

	ref := evaluate(1, false)
	if !ref.Evaluated || ref.Faults != uint64(len(durs)) {
		t.Fatalf("reference verdict = %+v", ref)
	}
	for _, workers := range []int{2, 4, 8} {
		for _, byHash := range []bool{false, true} {
			if got := evaluate(workers, byHash); got != ref {
				t.Fatalf("workers=%d byHash=%v verdict = %+v, want %+v", workers, byHash, got, ref)
			}
		}
	}
}

// The same invariance through the real tracer plumbing: per-worker
// Tracer.Observe cells merged by PhaseHistogram give the same windowed
// verdict regardless of worker partitioning, including across epoch
// boundaries (cumulative snapshot + Sub).
func TestEvaluateSLOTracerWindows(t *testing.T) {
	target := 2 * time.Millisecond
	run := func(workers int) []market.SLOVerdict {
		tr := trace.New(false)
		var prev stats.Histogram
		var out []market.SLOVerdict
		for i := uint64(0); i < 3000; i++ {
			tr.Observe(trace.EvFault, int(i)%workers, synthDur(i*4096))
			if (i+1)%1000 == 0 {
				cum := tr.PhaseHistogram(trace.EvFault)
				out = append(out, market.EvaluateSLO(target, cum, prev))
				prev = cum
			}
		}
		return out
	}
	ref := run(1)
	if len(ref) != 3 {
		t.Fatalf("windows = %d, want 3", len(ref))
	}
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		for w := range ref {
			if got[w] != ref[w] {
				t.Fatalf("workers=%d window %d verdict = %+v, want %+v", workers, w, got[w], ref[w])
			}
		}
	}
}
