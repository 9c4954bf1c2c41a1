package core

// Microbenchmarks for the data-plane fault hot path. Run with the default
// -benchmem-style allocation reporting enabled: the allocs/op column is the
// headline — a warmed monitor must report 0 on every backend — and ns/op is
// the wall-clock cost of one simulated miss + dirty eviction + write-back.

import (
	"fmt"
	"testing"
	"time"
)

func BenchmarkSteadyStateFault(b *testing.B) {
	for name, mk := range allocBenchBackends(b) {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				b.ReportAllocs()
				const pages = 128
				cfg := DefaultConfig(mk(), pages/2)
				cfg.Workers = workers
				m, err := NewMonitor(cfg, nil, "bench-hotpath")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.RegisterRange(testBase, uint64(pages)*PageSize, 4242); err != nil {
					b.Fatal(err)
				}
				var now time.Duration
				i := 0
				touch := func() {
					_, done, err := m.Touch(now, addr(i%pages), true)
					if err != nil {
						b.Fatal(err)
					}
					now = done
					i++
				}
				for k := 0; k < 3*pages; k++ {
					touch()
				}
				b.ResetTimer()
				for k := 0; k < b.N; k++ {
					touch()
				}
			})
		}
	}
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
