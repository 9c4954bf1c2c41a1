package core

// Microbenchmarks for the data-plane fault hot path. Run with the default
// -benchmem-style allocation reporting enabled: the allocs/op column is the
// headline — a warmed monitor must report 0 on every backend — and ns/op is
// the wall-clock cost of one simulated miss + dirty eviction + write-back.

import (
	"fmt"
	"testing"
	"time"

	"fluidmem/internal/kvstore"
)

// BenchmarkSteadyStateFault is one steady-state fault of the alloc harness
// per op (alloc_test.go): a store miss with a dirty eviction behind it on
// every backend and width, and the clean-drop variant's read-mostly stream on
// the cluster pool, where most faults install a shared store buffer and drop
// it clean.
func BenchmarkSteadyStateFault(b *testing.B) {
	run := func(name string, mk func() kvstore.Store, workers int, cleanDrop bool) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			_, touch := allocHarness(b, mk(), nil, workers, 128, cleanDrop)
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				touch()
			}
		})
	}
	backends := allocBenchBackends(b)
	for name, mk := range backends {
		for _, workers := range []int{1, 4} {
			run(fmt.Sprintf("%s/workers=%d", name, workers), mk, workers, false)
		}
	}
	run("cluster/workers=1/clean_drop", backends["cluster"], 1, true)
}

// BenchmarkProfilerRecord is the always-on Table I profiler's cost per
// recorded monitor operation (several per fault).
func BenchmarkProfilerRecord(b *testing.B) {
	p := new(Profiler)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Record(profOp(i%int(nOps)), time.Duration(i&4095)*time.Nanosecond)
	}
}

var benchZero bool

// BenchmarkAllZero is the eviction-path zero scan of one all-zero page, the
// case that reads all 4 KiB.
func BenchmarkAllZero(b *testing.B) {
	page := make([]byte, PageSize)
	b.SetBytes(PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchZero = allZero(page)
	}
}
