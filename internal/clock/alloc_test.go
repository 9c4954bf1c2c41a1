//go:build !race

package clock

import (
	"testing"
	"time"
)

// TestSchedulerSteadyStateAllocFree pins the event loop's allocation
// contract: once the queue has reached its working size, Schedule with a
// reused func plus Step allocate nothing — no boxing, no per-event closure.
// (Not under -race: the detector's instrumentation allocates.)
func TestSchedulerSteadyStateAllocFree(t *testing.T) {
	s := NewScheduler()
	fn := func(time.Duration) {}
	for i := 0; i < 8; i++ {
		s.Schedule(time.Duration(i), i, fn)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Schedule(s.Now()+5, 0, fn)
		s.Step()
	}); allocs != 0 {
		t.Fatalf("steady-state Schedule+Step allocates %v objects per op, want 0", allocs)
	}
}
