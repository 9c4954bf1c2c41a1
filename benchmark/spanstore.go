package main

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"fluidmem/internal/kvstore"
)

// Span kinds. The first five are the store calls a guest access can cause;
// the rest are one-off lifecycle spans.
const (
	spanGet = iota
	spanStartGet
	spanMultiGet
	spanPut
	spanMultiPut
	spanDelete
	spanTouch
	spanCrash
	spanRecover
	spanRun
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"kvstore.get", "kvstore.startget", "kvstore.multiget", "kvstore.put",
	"kvstore.multiput", "kvstore.delete", "fluidmem.touch",
	"kvstore.cluster.crash", "kvstore.cluster.recover", "workload.run",
}

// rawOpLimit is how many guest operations keep their raw spans for the
// Chrome trace; every span still counts in the aggregates.
const rawOpLimit = 50_000

// noParent is the parent of a span recorded outside any guest operation
// (drain at the end of a run, crash and recover between operations).
const noParent = -1

type rawSpan struct {
	kind       int
	start, end int64 // wall ns since the recorder was made
	op         int64 // the guest operation it belongs to, or noParent
	isChild    bool
	label      string // overrides the kind's name: which rung, which run
}

type spanAgg struct {
	calls uint64
	sum   int64
	hist  *hist
}

// recorder collects wall-clock spans in memory. A touch span is opened by the
// driver around each Read64/Write64; store spans recorded while it is open
// are its children, so the touch's self time is its duration minus theirs.
type recorder struct {
	// on gates recording, so that set-up traffic through a spanStore that is
	// already in place leaves no spans.
	on   bool
	base time.Time
	agg  [numSpanKinds]spanAgg
	raw  []rawSpan

	op        int64 // open guest operation, or noParent
	nextOp    int64
	opStart   int64
	childTime int64 // store time inside the open operation
	selfSum   int64 // Σ touch self time
}

func newRecorder() *recorder {
	r := &recorder{base: time.Now(), op: noParent}
	for i := range r.agg {
		r.agg[i].hist = &hist{}
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) record(kind int, start, end int64, op int64, child bool) {
	a := &r.agg[kind]
	a.calls++
	a.sum += end - start
	a.hist.add(end - start)
	if op < rawOpLimit {
		r.raw = append(r.raw, rawSpan{kind: kind, start: start, end: end, op: op, isChild: child})
	}
}

// beginOp opens the touch span of the next guest operation.
func (r *recorder) beginOp() {
	r.op = r.nextOp
	r.nextOp++
	r.childTime = 0
	r.opStart = r.now()
}

// endOp closes the open touch span.
func (r *recorder) endOp() {
	end := r.now()
	r.record(spanTouch, r.opStart, end, r.op, false)
	r.selfSum += end - r.opStart - r.childTime
	r.op = noParent
}

// child records one store call that started at start and ends now.
func (r *recorder) child(kind int, start int64) {
	if !r.on {
		return
	}
	end := r.now()
	r.record(kind, start, end, r.op, r.op != noParent)
	if r.op != noParent {
		r.childTime += end - start
	}
}

// storeSum is the time spent in store calls, inside operations or not.
func (r *recorder) storeSum() int64 {
	var sum int64
	for kind := spanGet; kind <= spanDelete; kind++ {
		sum += r.agg[kind].sum
	}
	return sum
}

// span records a lifecycle span (crash, recover, a whole library run) that
// started at start and ends now.
func (r *recorder) span(kind int, label string, start int64) {
	r.record(kind, start, r.now(), noParent, false)
	r.raw[len(r.raw)-1].label = label
}

// writeChromeTrace writes the raw spans in Chrome trace-event format.
func (r *recorder) writeChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "[")
	for i, s := range r.raw {
		if i > 0 {
			fmt.Fprint(bw, ",")
		}
		parent := "null"
		if s.isChild {
			parent = fmt.Sprintf("%q", fmt.Sprintf("touch-%d", s.op))
		}
		name := spanNames[s.kind]
		if s.label != "" {
			name = s.label
		}
		fmt.Fprintf(bw, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"parent\":%s}}",
			name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.op, parent)
	}
	fmt.Fprint(bw, "\n]\n")
	return bw.Flush()
}

// spanStore decorates a kvstore.Store with a wall-clock span around every
// call. It changes nothing the monitor can observe: arguments and results
// pass through untouched (PendingGet by value, as the interface requires) and
// Local is forwarded, because the monitor skips its RPC costs for a local
// store and a decorator that hid that would change virtual time.
type spanStore struct {
	inner kvstore.Store
	rec   *recorder
}

var (
	_ kvstore.Store = (*spanStore)(nil)
	_ kvstore.Local = (*spanStore)(nil)
)

func (s *spanStore) Name() string { return s.inner.Name() }

func (s *spanStore) Put(now time.Duration, key kvstore.Key, page []byte) (time.Duration, error) {
	t := s.rec.now()
	done, err := s.inner.Put(now, key, page)
	s.rec.child(spanPut, t)
	return done, err
}

func (s *spanStore) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	t := s.rec.now()
	done, err := s.inner.MultiPut(now, keys, pages)
	s.rec.child(spanMultiPut, t)
	return done, err
}

func (s *spanStore) Get(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
	t := s.rec.now()
	data, done, err := s.inner.Get(now, key)
	s.rec.child(spanGet, t)
	return data, done, err
}

func (s *spanStore) MultiGet(now time.Duration, keys []kvstore.Key) ([][]byte, time.Duration, error) {
	t := s.rec.now()
	pages, done, err := s.inner.MultiGet(now, keys)
	s.rec.child(spanMultiGet, t)
	return pages, done, err
}

func (s *spanStore) StartGet(now time.Duration, key kvstore.Key) kvstore.PendingGet {
	t := s.rec.now()
	p := s.inner.StartGet(now, key)
	s.rec.child(spanStartGet, t)
	return p
}

func (s *spanStore) Delete(now time.Duration, key kvstore.Key) (time.Duration, error) {
	t := s.rec.now()
	done, err := s.inner.Delete(now, key)
	s.rec.child(spanDelete, t)
	return done, err
}

func (s *spanStore) Stats() kvstore.Stats { return s.inner.Stats() }

func (s *spanStore) Local() bool {
	l, ok := s.inner.(kvstore.Local)
	return ok && l.Local()
}
