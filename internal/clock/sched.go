package clock

import (
	"fmt"
	"time"
)

// Scheduler is a deterministic discrete-event queue: events are popped in
// (time, insertion-sequence) order, so two events scheduled for the same
// virtual instant always run in the order they were scheduled, independent
// of heap internals or map iteration. It is the replay substrate for the
// multi-worker fault pipeline — N concurrent streams of work interleave
// through one Scheduler, and because ties break on the sequence number the
// interleaving is bit-for-bit identical on every run with the same seed.
//
// Scheduler is not safe for concurrent use: like Clock, it belongs to one
// single-threaded simulation loop (DESIGN.md §5, §9).
type Scheduler struct {
	// events is a binary min-heap on (At, seq), sifted in place: no
	// container/heap, whose interface{} Push/Pop boxes every Event.
	events []Event
	nextID uint64
	now    time.Duration
}

// Event is one scheduled callback, as delivered by Next.
type Event struct {
	// At is the virtual time the event fires.
	At time.Duration
	// Stream identifies the logical source (a vCPU, a worker); the
	// scheduler treats it as opaque.
	Stream int
	// Run is the event body. It may schedule further events.
	Run func(now time.Duration)

	seq uint64
}

// less orders events by (At, seq); seq is unique, so the order is total.
func (e *Event) less(o *Event) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	return e.seq < o.seq
}

// NewScheduler returns an empty queue at virtual time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now reports the fire time of the most recently popped event (the current
// virtual time of the event loop).
func (s *Scheduler) Now() time.Duration { return s.now }

// Len reports the number of pending events.
func (s *Scheduler) Len() int { return len(s.events) }

// Schedule enqueues fn to run at virtual time at. Scheduling into the past
// is a programming error (virtual time is monotonic) and panics.
func (s *Scheduler) Schedule(at time.Duration, stream int, fn func(now time.Duration)) {
	if at < s.now {
		panic(fmt.Sprintf("clock: scheduling event at %v, before current time %v", at, s.now))
	}
	s.nextID++
	h := append(s.events, Event{At: at, Stream: stream, Run: fn, seq: s.nextID})
	s.events = h
	// Sift the new event up.
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].less(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// Step pops and runs the earliest event, returning false when the queue is
// empty. The event's fire time becomes the scheduler's current time.
func (s *Scheduler) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	h := s.events
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = Event{} // do not pin the popped closure
	s.events = h[:n]
	// Sift the moved event down: c is the lesser child of i.
	for i, c := 0, 1; c < n; i, c = c, 2*c+1 {
		if c+1 < n && h[c+1].less(&h[c]) {
			c++
		}
		if !h[c].less(&h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
	}
	s.now = e.At
	e.Run(e.At)
	return true
}

// RunUntil drains events with fire times <= deadline (events an event
// schedules are included if they land inside the window) and returns the
// number executed.
func (s *Scheduler) RunUntil(deadline time.Duration) int {
	ran := 0
	for len(s.events) > 0 && s.events[0].At <= deadline {
		s.Step()
		ran++
	}
	return ran
}

// Run drains the queue completely and returns the number of events executed.
func (s *Scheduler) Run() int {
	ran := 0
	for s.Step() {
		ran++
	}
	return ran
}
