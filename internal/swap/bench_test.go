package swap

import (
	"testing"
	"time"

	"fluidmem/internal/blockdev"
)

// BenchmarkTouch is swap's row of the wall-clock ledger, on 1 024 frames
// over NVMe-oF. hit touches 512 resident pages in turn: referenced-bit and
// promotion bookkeeping only. major cycles writes through four times as many
// anonymous pages as frames, so every touch is a swap-in and every 32nd a
// reclaim of 32 swap-outs; what it allocates is the device's copy of each
// page read and each page written.
func BenchmarkTouch(b *testing.B) {
	const frames = 1024
	for _, c := range []struct {
		name  string
		pages int
	}{{"hit", frames / 2}, {"major", 4 * frames}} {
		b.Run(c.name, func(b *testing.B) {
			s := newSubsystem(b, frames, blockdev.KindNVMeoF)
			var now time.Duration
			k := 0
			touch := func() {
				_, done, err := s.Touch(now, addr(k%c.pages), true)
				if err != nil {
					b.Fatal(err)
				}
				now = done
				k++
			}
			for i := 0; i < 2*c.pages; i++ { // to steady state: every page swapped once, slices grown
				touch()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				touch()
			}
		})
	}
}
