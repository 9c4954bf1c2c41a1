package hotset

import "testing"

// BenchmarkFaultEvict is the ghost list's row of the wall-clock ledger: a
// tracker sized for 256 resident pages, where each op evicts a page and
// refaults the one evicted 64 ops earlier, a ghost hit at depth 64 every
// time.
func BenchmarkFaultEvict(b *testing.B) {
	tr := mustNew(b, DefaultParams(256))
	for i := uint64(0); i < 128; i++ {
		tr.Evict(i << 12)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := uint64(0); i < uint64(b.N); i++ {
		tr.Evict((i + 128) << 12)
		tr.Fault((i + 64) << 12)
	}
}
