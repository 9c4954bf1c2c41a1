package shardtest

import (
	"bytes"
	"testing"

	"fluidmem/internal/core"
	"fluidmem/internal/kvstore/storetest"
)

// TestWorkerCountEquivalence is the oracle: for every workload, monitors
// with 2, 4, and 8 workers must produce byte-identical Touch results, the
// same final resident set, the same logical epoch, and the same monitor and
// store op counts as the serial 1-worker monitor. Only virtual-time
// attribution may differ.
func TestWorkerCountEquivalence(t *testing.T) {
	for _, wl := range workloads() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			const seed = 42
			ref := Replay(t, wl, 1, seed)
			for _, workers := range []int{2, 4, 8} {
				got := Replay(t, wl, workers, seed)
				Equal(t, wl.Name, ref, got)
				// Sharding must never slow the pipeline down on these
				// workloads: a fault waits only for its own worker.
				if got.FinalTime > ref.FinalTime {
					t.Errorf("%s: %d workers finished later than 1 worker: %v > %v",
						wl.Name, workers, got.FinalTime, ref.FinalTime)
				}
			}
		})
	}
}

// TestReplayIsBitwiseRepeatable pins full determinism per (seed, workers):
// two replays of the same configuration must agree on every field INCLUDING
// virtual time — the property the equivalence test builds on.
func TestReplayIsBitwiseRepeatable(t *testing.T) {
	for _, wl := range workloads()[:2] {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				a := Replay(t, wl, workers, 7)
				b := Replay(t, wl, workers, 7)
				Equal(t, wl.Name, a, b)
				if a.FinalTime != b.FinalTime {
					t.Errorf("%s/w%d: replay not time-repeatable: %v vs %v",
						wl.Name, workers, a.FinalTime, b.FinalTime)
				}
				if a.Stats.InFlightWaits != b.Stats.InFlightWaits {
					t.Errorf("%s/w%d: replay InFlightWaits differ: %d vs %d",
						wl.Name, workers, a.Stats.InFlightWaits, b.Stats.InFlightWaits)
				}
			}
		})
	}
}

// TestWritebackWorkloadsExerciseEngine guards the write-back oracle against
// vacuity: the workloads that claim to prove elision/clean-drop determinism
// must actually trigger those paths, and the zero/clean workloads must avoid
// a meaningful share of store writes.
func TestWritebackWorkloadsExerciseEngine(t *testing.T) {
	byName := map[string]Workload{}
	for _, wl := range workloads() {
		byName[wl.Name] = wl
	}

	heavy := Replay(t, byName["ramcloud-writeback-writeheavy"], 4, 42)
	if heavy.Stats.CleanDropped == 0 {
		t.Errorf("write-heavy workload never clean-dropped: %+v", heavy.Stats)
	}
	if heavy.Store.MultiPuts == 0 {
		t.Errorf("write-heavy workload never flushed a batch: %+v", heavy.Store)
	}
	if heavy.Stats.Steals == 0 {
		t.Errorf("write-heavy workload never stole a pending write: %+v", heavy.Stats)
	}

	zero := Replay(t, byName["ramcloud-writeback-zeroheavy"], 4, 42)
	if zero.Stats.ZeroElided == 0 || zero.Stats.ZeroRefills == 0 {
		t.Errorf("zero-heavy workload never elided/refilled: %+v", zero.Stats)
	}
	// Elision + clean drop must remove a meaningful share of store writes:
	// writes shipped vs evictions that could have shipped.
	avoided := zero.Stats.ZeroElided + zero.Stats.CleanDropped
	if zero.Stats.Evictions > 0 && avoided*10 < zero.Stats.Evictions {
		t.Errorf("zero-heavy workload avoided only %d of %d eviction writes",
			avoided, zero.Stats.Evictions)
	}

	ro := Replay(t, byName["dram-writeback-readonly"], 4, 42)
	if ro.Store.Puts != 0 {
		t.Errorf("read-only workload wrote %d pages to the store", ro.Store.Puts)
	}
	if ro.Stats.Evictions == 0 {
		t.Errorf("read-only workload never evicted (capacity too large?): %+v", ro.Stats)
	}
}

// TestReadPathWorkloadsExerciseEngine is the same guard for the read side and
// the unoptimised baseline: the workloads that claim to prove readahead and
// synchronous eviction writes deterministic must actually take those paths.
func TestReadPathWorkloadsExerciseEngine(t *testing.T) {
	byName := map[string]Workload{}
	for _, wl := range workloads() {
		byName[wl.Name] = wl
	}

	for _, name := range []string{"ramcloud-batched-prefetch", "memcached-prefetch-churn"} {
		out := Replay(t, byName[name], 4, 42)
		if out.Stats.Prefetches == 0 || out.Store.MultiGets == 0 {
			t.Errorf("%s never prefetched via MultiGet: %+v %+v", name, out.Stats, out.Store)
		}
	}

	baseline := Replay(t, byName["dram-sync-baseline"], 4, 42)
	if baseline.Stats.SyncWrites == 0 {
		t.Errorf("baseline workload never wrote synchronously: %+v", baseline.Stats)
	}
}

// TestWorkloadsThroughAliasingNet replays every workload over a store behind
// storetest's aliasing net, which poisons each buffer a flush gets back from
// MultiPut and checks every store read against its own digest of what was
// written. The monitor must neither read a frame it has handed to the store
// nor pool the frame it queued in place of the one it got back: either shows
// as a failed digest here, or as a poisoned page in the guest. And the net is
// pure observation, so the outcome equals the undecorated run's, time included.
func TestWorkloadsThroughAliasingNet(t *testing.T) {
	for _, wl := range workloads() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			netted := wl
			netted.NewConfig = func(seed uint64) core.Config {
				cfg := wl.NewConfig(seed)
				cfg.Store = storetest.Poison(t, cfg.Store)
				return cfg
			}
			got := Replay(t, netted, 4, 42)
			ref := Replay(t, wl, 4, 42)
			Equal(t, wl.Name, ref, got)
			if got.FinalTime != ref.FinalTime || got.Stats.InFlightWaits != ref.Stats.InFlightWaits {
				t.Errorf("%s: the net moved virtual time: %v vs %v", wl.Name, got.FinalTime, ref.FinalTime)
			}
		})
	}
}

// TestSeedsDiverge guards the oracle against vacuity: different seeds must
// produce different outcomes, or the hash compares nothing.
func TestSeedsDiverge(t *testing.T) {
	wl := workloads()[0]
	a := Replay(t, wl, 1, 1)
	b := Replay(t, wl, 1, 2)
	if a.TouchHash == b.TouchHash && a.FinalTime == b.FinalTime {
		t.Fatal("different seeds produced identical outcomes; oracle is vacuous")
	}
	if a.TraceDigest == b.TraceDigest {
		t.Fatal("different seeds produced identical trace digests; trace oracle is vacuous")
	}
	if a.HotsetDigest == b.HotsetDigest {
		t.Fatal("different seeds produced identical hotset digests; hotset oracle is vacuous")
	}
	if a.MarketPlanDigest == b.MarketPlanDigest {
		t.Fatal("different seeds produced identical market plans; market oracle is vacuous")
	}
}

// TestHotsetOracleSeesEveryWorkload guards the hotset extension of the
// oracle against vacuity: every workload churns enough pages through the
// ghost list to produce a non-trivial digest, real ghost hits, and a WSS
// estimate strictly beyond the resident capacity — so the Equal comparisons
// of HotsetDigest/WSSPages/ArbiterPlanDigest/MarketPlanDigest always have material to
// disagree on.
func TestHotsetOracleSeesEveryWorkload(t *testing.T) {
	for _, wl := range workloads() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			out := Replay(t, wl, 2, 42)
			if out.HotsetDigest == 0 {
				t.Error("replay produced a zero hotset digest")
			}
			if out.WSSPages <= 0 {
				t.Errorf("WSS estimate %d not positive", out.WSSPages)
			}
			if out.MarketPlanDigest == 0 {
				t.Error("replay produced a zero market plan digest")
			}
			// Every workload over-subscribes its capacity, so the working
			// set must not fit: the estimator has to see re-references.
			if out.Stats.Evictions > 0 && out.WSSPages <= wl.Pages/8 {
				t.Errorf("WSS estimate %d implausibly small for %d-page workload", out.WSSPages, wl.Pages)
			}
		})
	}
}

// TestTraceByteIdentical pins trace determinism all the way down to bytes:
// the same (workload, workers, seed) must serialise to a byte-identical
// Chrome trace — timestamps, durations, worker attribution and all. This is
// the strongest replay guarantee the tracer offers and the one EXPERIMENTS
// recipes rely on (re-running a figure regenerates the same trace file).
func TestTraceByteIdentical(t *testing.T) {
	for _, wl := range workloads()[:2] {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				a := Replay(t, wl, workers, 7)
				b := Replay(t, wl, workers, 7)
				var bufA, bufB bytes.Buffer
				if err := a.Trace.WriteChromeTrace(&bufA); err != nil {
					t.Fatal(err)
				}
				if err := b.Trace.WriteChromeTrace(&bufB); err != nil {
					t.Fatal(err)
				}
				if bufA.Len() == 0 || len(a.Trace.Events()) == 0 {
					t.Fatalf("%s/w%d: empty trace; byte test is vacuous", wl.Name, workers)
				}
				if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
					t.Errorf("%s/w%d: same seed serialised different trace bytes (%d vs %d bytes)",
						wl.Name, workers, bufA.Len(), bufB.Len())
				}
			}
		})
	}
}

// TestTraceDigestSeesEveryWorkload guards the trace oracle against partial
// vacuity: every workload's replay must emit a non-trivial event stream, so
// the digest comparison in Equal always has material to disagree on.
func TestTraceDigestSeesEveryWorkload(t *testing.T) {
	for _, wl := range workloads() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			out := Replay(t, wl, 2, 42)
			if n := len(out.Trace.Events()); n < wl.Steps {
				t.Errorf("%s: only %d trace events for %d steps", wl.Name, n, wl.Steps)
			}
		})
	}
}
