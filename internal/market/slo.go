// SLO accounting: turning a tenant's fault histogram into the per-tenant
// WindowP99 the market enforces against.
//
// The pipeline is: each tenant's monitor records every resolved fault's span
// (resume minus event delivery, the value of the tracer's FAULT span) into
// one cumulative histogram it owns, core.Monitor.FaultHistogram, whether or
// not a tracer is attached; the host snapshots that histogram at each
// tenant's own epoch-boundary crossing (capture-on-cross, same as the hotset
// curves) and differences consecutive snapshots with stats.Histogram.Sub to
// get the closing window. Every step is a pure function of the multiset of
// fault durations — bucket-wise addition and subtraction — so the evaluation
// cannot depend on tracing or on how faults were partitioned across workers.
// TestEvaluateSLOWorkerPartitionInvariance and TestEvaluateSLOTracerWindows
// prove the latter for histograms merged from {1,2,4,8} worker cells.
package market

import (
	"time"

	"fluidmem/internal/stats"
)

// SLOVerdict is one tenant's window evaluation.
type SLOVerdict struct {
	// Target is the tenant's p99 fault-latency SLO (0 = no SLO; Evaluated
	// false and Violated false).
	Target time.Duration
	// P99 is the window's 99th-percentile fault latency.
	P99 time.Duration
	// Faults is the window's fault count.
	Faults uint64
	// Evaluated reports whether a target existed to compare against;
	// Violated whether the window p99 exceeded it. An empty window (no
	// faults) never violates — a tenant that faulted zero times met any
	// tail-latency target vacuously.
	Evaluated bool
	Violated  bool
}

// EvaluateSLO compares one tenant's closing epoch window against its p99
// target. cum is the tenant's cumulative fault histogram at the
// closing boundary; prev is the snapshot captured at the previous boundary
// (zero value for the first window). Deterministic: a pure function of the
// two histograms and the target.
func EvaluateSLO(target time.Duration, cum, prev stats.Histogram) SLOVerdict {
	win := cum.Sub(prev)
	v := SLOVerdict{
		Target: target,
		P99:    win.Percentile(99),
		Faults: win.Count(),
	}
	if target <= 0 {
		return v
	}
	v.Evaluated = true
	v.Violated = v.Faults > 0 && v.P99 > target
	return v
}
