package kvstore

import (
	"strconv"
	"time"

	"fluidmem/internal/trace"
)

// instrumented decorates a Store with trace emission: every operation is
// recorded as one STORE_* event spanning issue to completion. Like all
// tracing, the wrapper is pure observation — it draws no randomness,
// charges no virtual time, and delegates every result untouched, which the
// storetest conformance suite asserts by running the full suite through it.
type instrumented struct {
	inner Store
	tr    *trace.Tracer
}

// Instrumented wraps store so its traffic is visible to tr. A nil tracer
// returns store unwrapped (zero overhead, and `==` identity with the
// original), so callers can thread an optional tracer unconditionally.
func Instrumented(store Store, tr *trace.Tracer) Store {
	if tr == nil {
		return store
	}
	return &instrumented{inner: store, tr: tr}
}

var (
	_ Store = (*instrumented)(nil)
	_ Local = (*instrumented)(nil)
	_ Reput = (*instrumented)(nil)
)

func (s *instrumented) Name() string { return s.inner.Name() }

func (s *instrumented) Put(now time.Duration, key Key, page []byte) (time.Duration, error) {
	done, err := s.inner.Put(now, key, page)
	if err == nil {
		s.tr.Emit(trace.EvStorePut, 0, key.Page(), now, done-now, "")
	}
	return done, err
}

func (s *instrumented) MultiPut(now time.Duration, keys []Key, pages [][]byte) (time.Duration, error) {
	done, err := s.inner.MultiPut(now, keys, pages)
	if err == nil {
		s.tr.Emit(trace.EvStoreMultiPut, 0, 0, now, done-now, strconv.Itoa(len(keys)))
	}
	return done, err
}

func (s *instrumented) Get(now time.Duration, key Key) ([]byte, time.Duration, error) {
	data, done, err := s.inner.Get(now, key)
	if err == nil {
		s.tr.Emit(trace.EvStoreGet, 0, key.Page(), now, done-now, "")
	}
	return data, done, err
}

func (s *instrumented) MultiGet(now time.Duration, keys []Key) ([][]byte, time.Duration, error) {
	pages, done, err := s.inner.MultiGet(now, keys)
	if err == nil {
		s.tr.Emit(trace.EvStoreMultiGet, 0, 0, now, done-now, strconv.Itoa(len(keys)))
	}
	return pages, done, err
}

func (s *instrumented) StartGet(now time.Duration, key Key) PendingGet {
	p := s.inner.StartGet(now, key)
	if p.Err == nil {
		s.tr.Emit(trace.EvStoreGet, 0, key.Page(), now, p.ReadyAt-now, "split")
	}
	return p
}

func (s *instrumented) Delete(now time.Duration, key Key) (time.Duration, error) {
	done, err := s.inner.Delete(now, key)
	if err == nil {
		s.tr.Emit(trace.EvStoreDelete, 0, key.Page(), now, done-now, "")
	}
	return done, err
}

func (s *instrumented) Stats() Stats { return s.inner.Stats() }

// Local passes through the inner store's locality (false when the inner
// store does not declare one, matching how the monitor probes it).
func (s *instrumented) Local() bool {
	if l, ok := s.inner.(Local); ok {
		return l.Local()
	}
	return false
}

// Reput passes through the inner store's re-put property.
func (s *instrumented) Reput() bool {
	r, ok := s.inner.(Reput)
	return ok && r.Reput()
}

// Take passes through to the inner store. It is no store traffic, so it
// emits nothing.
func (s *instrumented) Take(key Key, buf []byte) bool {
	r, ok := s.inner.(Reput)
	return ok && r.Take(key, buf)
}

// Inner exposes the wrapped store (introspection, e.g. fluidmemd's
// replication status display).
func (s *instrumented) Inner() Store { return s.inner }
