package resilience

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/storetest"
)

var errTransient = errors.New("fake: transient backend failure")

// fakeStore is a scriptable backend: it fails its first `fails` calls (or
// every call before virtual time healAt) with err, then succeeds.
type fakeStore struct {
	fails   int
	healAt  time.Duration
	err     error
	latency time.Duration

	calls     int
	rotations int
	data      map[kvstore.Key][]byte
}

func newFake(fails int) *fakeStore {
	return &fakeStore{fails: fails, err: errTransient, latency: 5 * time.Microsecond, data: map[kvstore.Key][]byte{}}
}

func (f *fakeStore) attempt(t time.Duration) (time.Duration, error) {
	f.calls++
	done := t + f.latency
	if f.healAt > 0 {
		if t < f.healAt {
			return done, f.err
		}
		return done, nil
	}
	if f.calls <= f.fails {
		return done, f.err
	}
	return done, nil
}

func (f *fakeStore) Name() string { return "fake" }

func (f *fakeStore) Put(now time.Duration, key kvstore.Key, page []byte) (time.Duration, error) {
	done, err := f.attempt(now)
	if err != nil {
		return done, err
	}
	f.data[key] = append([]byte(nil), page...)
	return done, nil
}

func (f *fakeStore) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	done, err := f.attempt(now)
	if err != nil {
		return done, err
	}
	for i, k := range keys {
		f.data[k] = append([]byte(nil), pages[i]...)
	}
	return done, nil
}

func (f *fakeStore) Get(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
	done, err := f.attempt(now)
	if err != nil {
		return nil, done, err
	}
	p, ok := f.data[key]
	if !ok {
		return nil, done, kvstore.ErrNotFound
	}
	return p, done, nil
}

func (f *fakeStore) MultiGet(now time.Duration, keys []kvstore.Key) ([][]byte, time.Duration, error) {
	done, err := f.attempt(now)
	if err != nil {
		return nil, done, err
	}
	pages := make([][]byte, len(keys))
	for i, k := range keys {
		if p, ok := f.data[k]; ok {
			pages[i] = p
		}
	}
	return pages, done, nil
}

func (f *fakeStore) StartGet(now time.Duration, key kvstore.Key) kvstore.PendingGet {
	data, done, err := f.Get(now, key)
	return kvstore.PendingGet{Key: key, Data: data, ReadyAt: done, Err: err}
}

func (f *fakeStore) Delete(now time.Duration, key kvstore.Key) (time.Duration, error) {
	done, err := f.attempt(now)
	if err != nil {
		return done, err
	}
	delete(f.data, key)
	return done, nil
}

func (f *fakeStore) Stats() kvstore.Stats { return kvstore.Stats{} }

// RotatePrimary satisfies the layer's failover hook.
func (f *fakeStore) RotatePrimary() int { f.rotations++; return f.rotations }

func testPolicy() Policy {
	return Policy{
		MaxRetries:    4,
		RetryBase:     time.Microsecond,
		RetryMax:      8 * time.Microsecond,
		OpDeadline:    400 * time.Microsecond,
		FailoverAfter: 2,
		DegradedProbe: 20 * time.Microsecond,
		MaxStall:      10 * time.Millisecond,
	}
}

func TestConformancePassthrough(t *testing.T) {
	// Over a healthy backend the layer must be invisible: full contract holds.
	storetest.Run(t, func() kvstore.Store {
		return Wrap(dram.New(dram.DefaultParams(), 1), DefaultPolicy(), 1)
	})
}

func TestRetryThenSuccess(t *testing.T) {
	f := newFake(2)
	s := Wrap(f, testPolicy(), 1)
	key := kvstore.MakeKey(0x1000, 1)
	done, err := s.Put(0, key, storetest.Page(1))
	if err != nil {
		t.Fatalf("put through 2 transient failures: %v", err)
	}
	if f.calls != 3 {
		t.Fatalf("calls = %d, want 3 (2 failures + success)", f.calls)
	}
	st := s.ResilienceStats()
	if st.Retries != 2 || st.BackoffTime <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Completion must include the failed attempts' latency plus backoff.
	if done <= 3*f.latency {
		t.Fatalf("done = %v, backoff not charged", done)
	}
	if h := s.Health(); h.State != Healthy || h.ConsecutiveFailures != 0 {
		t.Fatalf("health after success = %+v", h)
	}
}

// flakyMultiPut refuses its first fails MultiPuts without touching the batch,
// as the hand-over contract demands of a failing store.
type flakyMultiPut struct {
	kvstore.Store
	fails int
}

func (f *flakyMultiPut) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	if f.fails > 0 {
		f.fails--
		return now + time.Microsecond, errTransient
	}
	return f.Store.MultiPut(now, keys, pages)
}

func TestMultiPutRetryWritesWhatWasPassed(t *testing.T) {
	// A batch that fails has taken no buffer, so the retry resubmits the
	// caller's slice as it is and the hand-over happens once, on the attempt
	// that succeeds — through an overwrite, where buffers do change hands.
	inner := dram.New(dram.DefaultParams(), 1)
	flaky := &flakyMultiPut{Store: inner}
	s := Wrap(flaky, testPolicy(), 1)
	keys := []kvstore.Key{kvstore.MakeKey(0x1000, 1), kvstore.MakeKey(0x2000, 1)}
	var now time.Duration
	for round := byte(0); round < 2; round++ {
		flaky.fails = 2
		pages := [][]byte{storetest.Page(2 * round), storetest.Page(2*round + 1)}
		done, err := s.MultiPut(now, keys, pages)
		if err != nil {
			t.Fatalf("round %d: multiput through 2 transient failures: %v", round, err)
		}
		for i, key := range keys {
			if round > 0 {
				pages[i][0] ^= 0xFF // handed back: ours to reuse
			}
			if got, _, err := s.Get(done, key); err != nil || !bytes.Equal(got, storetest.Page(2*round+byte(i))) {
				t.Fatalf("round %d key %d: retry did not write the submitted page (%v)", round, i, err)
			}
		}
		now = done
	}
	if st := inner.Stats(); st.MultiPuts != 2 || st.Puts != 4 {
		t.Fatalf("inner store saw %+v, want each batch applied once", st)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	f := newFake(0)
	s := Wrap(f, testPolicy(), 1)
	if _, _, err := s.Get(0, kvstore.MakeKey(0x9999000, 1)); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if f.calls != 1 {
		t.Fatalf("ErrNotFound was retried: %d calls", f.calls)
	}
	if st := s.ResilienceStats(); st.PermanentErrors != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBackoffDeterministic(t *testing.T) {
	run := func(seed uint64) time.Duration {
		f := newFake(3)
		s := Wrap(f, testPolicy(), seed)
		done, err := s.Put(0, kvstore.MakeKey(0x1000, 1), storetest.Page(1))
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	if a, b := run(42), run(42); a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}

func TestParkUntilHeal(t *testing.T) {
	f := newFake(0)
	f.healAt = 500 * time.Microsecond
	f.err = errTransient
	p := testPolicy()
	p.MaxRetries = 2
	p.OpDeadline = 50 * time.Microsecond
	s := Wrap(f, p, 1)
	key := kvstore.MakeKey(0x2000, 1)
	done, err := s.Put(0, key, storetest.Page(2))
	if err != nil {
		t.Fatalf("outage within stall budget must not error: %v", err)
	}
	if done < f.healAt {
		t.Fatalf("done = %v, before the backend healed at %v", done, f.healAt)
	}
	st := s.ResilienceStats()
	if st.DegradedEntries != 1 || st.DegradedExits != 1 {
		t.Fatalf("degraded transitions = %d in / %d out", st.DegradedEntries, st.DegradedExits)
	}
	if st.StallTime <= 0 {
		t.Fatal("no stall time recorded for a parked op")
	}
	if h := s.Health(); h.State != Healthy || h.StallTime != st.StallTime {
		t.Fatalf("health after heal = %+v", h)
	}
}

func TestStallBudgetExhausted(t *testing.T) {
	f := newFake(1 << 30) // never heals
	p := testPolicy()
	p.MaxStall = 200 * time.Microsecond
	s := Wrap(f, p, 1)
	_, err := s.Put(0, kvstore.MakeKey(0x3000, 1), storetest.Page(3))
	if !errors.Is(err, ErrStallBudgetExhausted) {
		t.Fatalf("err = %v, want ErrStallBudgetExhausted", err)
	}
	st := s.ResilienceStats()
	if st.StallExhausted != 1 {
		t.Fatalf("StallExhausted = %d", st.StallExhausted)
	}
	if h := s.Health(); h.State != Degraded || h.LastError == nil {
		t.Fatalf("health after exhausted stall = %+v", h)
	}
}

func TestFailoverOnConsecutiveFailures(t *testing.T) {
	f := newFake(4)
	s := Wrap(f, testPolicy(), 1) // FailoverAfter: 2
	if _, err := s.Put(0, kvstore.MakeKey(0x4000, 1), storetest.Page(4)); err != nil {
		t.Fatal(err)
	}
	// 4 consecutive failures with FailoverAfter=2 → rotations at 2 and 4.
	if f.rotations != 2 {
		t.Fatalf("rotations = %d, want 2", f.rotations)
	}
	if st := s.ResilienceStats(); st.Failovers != 2 {
		t.Fatalf("Failovers = %d", st.Failovers)
	}
}

func TestSlowOpFailover(t *testing.T) {
	f := newFake(0)
	f.latency = 100 * time.Microsecond // limping but never failing
	p := testPolicy()
	p.SlowOpThreshold = 50 * time.Microsecond
	s := Wrap(f, p, 1)
	key := kvstore.MakeKey(0x5000, 1)
	s.Put(0, key, storetest.Page(5))
	s.Put(0, key, storetest.Page(5))
	// Two consecutive slow ops with FailoverAfter=2 → one rotation: the
	// gray-replica escape hatch fires without a single error.
	if f.rotations != 1 {
		t.Fatalf("rotations = %d, want 1", f.rotations)
	}
	if st := s.ResilienceStats(); st.SlowOps != 2 || st.Failovers != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStartGetFallsBackThroughPolicy(t *testing.T) {
	f := newFake(1) // the split read's top half fails once
	s := Wrap(f, testPolicy(), 1)
	key := kvstore.MakeKey(0x6000, 1)
	// Seed the page past the injected failure.
	if _, err := s.Put(0, key, storetest.Page(6)); err != nil {
		t.Fatal(err)
	}
	f.fails = f.calls + 1 // fail exactly the next attempt
	p := s.StartGet(0, key)
	data, done, err := p.Wait(0)
	if err != nil {
		t.Fatalf("split read did not recover: %v", err)
	}
	if data[0] != storetest.Page(6)[0] {
		t.Fatal("fallback returned wrong page")
	}
	if done < f.latency*2 {
		t.Fatalf("done = %v, retry latency not charged", done)
	}
}
