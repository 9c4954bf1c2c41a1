package clock

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestSchedulerOrdersByTimeThenSeq(t *testing.T) {
	s := NewScheduler()
	var got []int
	rec := func(id int) func(time.Duration) {
		return func(time.Duration) { got = append(got, id) }
	}
	// Three events at t=10 scheduled out of order relative to their IDs, one
	// earlier, one later: ties must resolve in scheduling order.
	s.Schedule(10, 0, rec(1))
	s.Schedule(5, 0, rec(0))
	s.Schedule(10, 1, rec(2))
	s.Schedule(20, 0, rec(4))
	s.Schedule(10, 2, rec(3))
	if n := s.Run(); n != 5 {
		t.Fatalf("ran %d events, want 5", n)
	}
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("execution order %v, want %v", got, want)
	}
	if s.Now() != 20 {
		t.Fatalf("final time %v, want 20ns", s.Now())
	}
}

func TestSchedulerEventsScheduleEvents(t *testing.T) {
	s := NewScheduler()
	var fires []time.Duration
	var chain func(now time.Duration)
	chain = func(now time.Duration) {
		fires = append(fires, now)
		if len(fires) < 4 {
			s.Schedule(now+3, 0, chain)
		}
	}
	s.Schedule(1, 0, chain)
	s.Run()
	if want := []time.Duration{1, 4, 7, 10}; !reflect.DeepEqual(fires, want) {
		t.Fatalf("chain fired at %v, want %v", fires, want)
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	ran := 0
	for _, at := range []time.Duration{1, 5, 9, 13} {
		s.Schedule(at, 0, func(time.Duration) { ran++ })
	}
	if n := s.RunUntil(9); n != 3 || ran != 3 {
		t.Fatalf("RunUntil(9) ran %d/%d, want 3", n, ran)
	}
	if s.Len() != 1 {
		t.Fatalf("%d events left, want 1", s.Len())
	}
	// An event scheduled inside the window by a drained event also runs.
	s.Schedule(14, 0, func(now time.Duration) {
		s.Schedule(now+1, 0, func(time.Duration) { ran++ })
	})
	if n := s.RunUntil(20); n != 3 || ran != 5 {
		t.Fatalf("second RunUntil ran %d (total %d), want 3 (total 5)", n, ran)
	}
}

func TestSchedulerRejectsPastEvents(t *testing.T) {
	s := NewScheduler()
	s.Schedule(10, 0, func(time.Duration) {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	s.Schedule(5, 0, func(time.Duration) {})
}

// TestSchedulerMatchesSortedModel drives the heap with random pushes
// interleaved with pops — including events that, when they fire, schedule
// further events at the very same instant — and checks the replay against
// the specification itself: the pending set, sorted by (at, seq).
func TestSchedulerMatchesSortedModel(t *testing.T) {
	type pending struct {
		at     time.Duration
		seq    int // push order: the tie-break
		stream int
		spawn  int // same-instant children scheduled when this fires
	}
	for seed := uint64(1); seed <= 20; seed++ {
		r := NewRand(seed)
		s := NewScheduler()
		var model []pending
		var fired, want []int
		nextSeq := 0
		var push func(at time.Duration, spawn int)
		push = func(at time.Duration, spawn int) {
			p := pending{at: at, seq: nextSeq, stream: r.Intn(8), spawn: spawn}
			nextSeq++
			model = append(model, p)
			s.Schedule(at, p.stream, func(now time.Duration) {
				if now != p.at {
					t.Fatalf("seed %d: event %d fired at %v, scheduled for %v", seed, p.seq, now, p.at)
				}
				fired = append(fired, p.seq)
				for i := 0; i < p.spawn; i++ {
					push(now, 0)
				}
			})
		}
		pop := func() {
			// The model's answer is the least (at, seq). Same-instant
			// children the step pushes get later seqs, so they sort
			// behind everything already pending at that instant.
			sort.Slice(model, func(i, j int) bool {
				if model[i].at != model[j].at {
					return model[i].at < model[j].at
				}
				return model[i].seq < model[j].seq
			})
			want = append(want, model[0].seq)
			model = model[1:]
			if !s.Step() {
				t.Fatalf("seed %d: Step reported an empty queue with %d events in the model", seed, len(model)+1)
			}
		}
		for op := 0; op < 2000; op++ {
			if len(model) == 0 || r.Intn(5) < 3 {
				// Few distinct instants, so ties are the common case.
				push(s.Now()+time.Duration(r.Intn(6)), r.Intn(4)/3*(1+r.Intn(3)))
			} else {
				pop()
			}
			if s.Len() != len(model) {
				t.Fatalf("seed %d op %d: Len %d, model %d", seed, op, s.Len(), len(model))
			}
		}
		for len(model) > 0 {
			pop()
		}
		if s.Step() {
			t.Fatalf("seed %d: Step ran an event the model does not have", seed)
		}
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("seed %d: fired %v, model order %v", seed, fired, want)
		}
		// Popped slots are zeroed: a drained queue pins no closure.
		for i, e := range s.events[:cap(s.events)] {
			if e.Run != nil {
				t.Fatalf("seed %d: drained queue still holds a closure in slot %d", seed, i)
			}
		}
	}
}

// BenchmarkSchedulerPushPop is the event queue's ledger row: one Schedule
// plus one Step per op with 16 events pending, the closure reused as the
// open-loop engine reuses its per-tenant one.
func BenchmarkSchedulerPushPop(b *testing.B) {
	s := NewScheduler()
	fn := func(time.Duration) {}
	for i := 0; i < 16; i++ {
		s.Schedule(time.Duration(i), i, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(s.Now()+time.Duration(16+i%7), i&15, fn)
		s.Step()
	}
}
