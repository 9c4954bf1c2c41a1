package faulty

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/storetest"
)

func quiet(seed uint64) *Store {
	return Wrap(dram.New(dram.DefaultParams(), seed), Params{}, seed)
}

func TestConformanceWithNoFaults(t *testing.T) {
	// A wrapper with zero fault rates must be invisible: the full Store
	// contract holds through it.
	storetest.Run(t, func() kvstore.Store { return quiet(1) })
}

func TestTransientErrorRate(t *testing.T) {
	p := Uniform(0.3, 0)
	s := Wrap(dram.New(dram.DefaultParams(), 1), p, 42)
	key := kvstore.MakeKey(0x1000, 1)
	if _, err := s.Put(0, key, storetest.Page(1)); err != nil {
		// First op may itself be injected; retry until the page is stored.
		for {
			if _, err := s.Put(0, key, storetest.Page(1)); err == nil {
				break
			}
		}
	}
	const total = 2000
	failed := 0
	for i := 0; i < total; i++ {
		_, _, err := s.Get(0, key)
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error class: %v", err)
			}
			failed++
		}
	}
	frac := float64(failed) / total
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("injected fraction %v with 30%% rate", frac)
	}
	if got := s.InjectStats().TransientErrors; got < uint64(failed) {
		t.Fatalf("TransientErrors = %d, observed %d failures", got, failed)
	}
}

func TestErrorChargesLatency(t *testing.T) {
	p := Uniform(1.0, 0) // every op fails
	s := Wrap(dram.New(dram.DefaultParams(), 1), p, 7)
	now := 10 * time.Microsecond
	done, err := s.Put(now, kvstore.MakeKey(0x1000, 1), storetest.Page(1))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if done != now+p.PerOp[OpPut].ErrorLatency {
		t.Fatalf("failed op completed at %v, want issue+%v", done, p.PerOp[OpPut].ErrorLatency)
	}
}

func TestCrashWindow(t *testing.T) {
	p := Params{
		Crashes:            []Window{{From: time.Millisecond, To: 2 * time.Millisecond}},
		CrashRejectLatency: 2 * time.Microsecond,
	}
	s := Wrap(dram.New(dram.DefaultParams(), 1), p, 3)
	key := kvstore.MakeKey(0x2000, 1)

	// Before the window: up.
	if s.Down(0) {
		t.Fatal("down before crash window")
	}
	if _, err := s.Put(0, key, storetest.Page(2)); err != nil {
		t.Fatal(err)
	}

	// Inside: every op bounces with ErrCrashed at connection-refused speed.
	at := 1500 * time.Microsecond
	if !s.Down(at) {
		t.Fatal("not down inside crash window")
	}
	_, done, err := s.Get(at, key)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err inside window = %v", err)
	}
	if done != at+p.CrashRejectLatency {
		t.Fatalf("reject at %v, want %v", done, at+p.CrashRejectLatency)
	}
	pg := s.StartGet(at, key)
	if !errors.Is(pg.Err, ErrCrashed) {
		t.Fatalf("split read inside window: %v", pg.Err)
	}

	// After: recovered, data from before the crash survives.
	got, _, err := s.Get(3*time.Millisecond, key)
	if err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if got[0] != storetest.Page(2)[0] {
		t.Fatal("page lost across crash window")
	}
	if s.InjectStats().CrashRejects != 2 {
		t.Fatalf("CrashRejects = %d, want 2", s.InjectStats().CrashRejects)
	}
}

func TestGrayWindowStalls(t *testing.T) {
	p := Params{
		Gray:      []Window{{From: 0, To: time.Millisecond}},
		GrayDelay: 500 * time.Microsecond,
	}
	s := Wrap(dram.New(dram.DefaultParams(), 1), p, 5)
	key := kvstore.MakeKey(0x3000, 1)
	done, err := s.Put(0, key, storetest.Page(3))
	if err != nil {
		t.Fatal(err)
	}
	if done < p.GrayDelay {
		t.Fatalf("gray op completed at %v, want >= %v stall", done, p.GrayDelay)
	}
	// Outside the window the stall disappears.
	fast, err := s.Put(2*time.Millisecond, key, storetest.Page(3))
	if err != nil {
		t.Fatal(err)
	}
	if fast-2*time.Millisecond >= p.GrayDelay {
		t.Fatal("gray stall applied outside the window")
	}
	st := s.InjectStats()
	if st.GrayOps != 1 || st.GrayTime != p.GrayDelay {
		t.Fatalf("gray stats = %+v", st)
	}
}

func TestSpikeAccounting(t *testing.T) {
	p := Uniform(0, 1.0) // every op spikes
	s := Wrap(dram.New(dram.DefaultParams(), 1), p, 9)
	key := kvstore.MakeKey(0x4000, 1)
	if _, err := s.Put(0, key, storetest.Page(4)); err != nil {
		t.Fatal(err)
	}
	st := s.InjectStats()
	if st.Spikes != 1 || st.SpikeTime <= 0 || st.SpikeTime > p.PerOp[OpPut].SpikeExtra {
		t.Fatalf("spike stats = %+v", st)
	}
}

func TestSameSeedIdenticalInjections(t *testing.T) {
	run := func() (Injection, []Injection, InjectStats) {
		p := Uniform(0.1, 0.05)
		p.Crashes = []Window{{From: 500 * time.Microsecond, To: time.Millisecond}}
		p.Gray = []Window{{From: 2 * time.Millisecond, To: 3 * time.Millisecond}}
		s := Wrap(dram.New(dram.DefaultParams(), 1), p, 1234)
		now := time.Duration(0)
		for i := 0; i < 500; i++ {
			key := kvstore.MakeKey(uint64(i%64*kvstore.PageSize), 1)
			var err error
			var done time.Duration
			if i%3 == 0 {
				done, err = s.Put(now, key, storetest.Page(byte(i)))
			} else {
				_, done, err = s.Get(now, key)
			}
			_ = err // injected failures are part of the schedule
			if done > now {
				now = done
			}
			now += 7 * time.Microsecond
		}
		log := s.Log()
		var first Injection
		if len(log) > 0 {
			first = log[0]
		}
		return first, log, s.InjectStats()
	}
	f1, l1, s1 := run()
	f2, l2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged:\n%+v\n%+v", s1, s2)
	}
	if len(l1) == 0 {
		t.Fatal("no injections fired; test is vacuous")
	}
	if len(l1) != len(l2) {
		t.Fatalf("log lengths diverged: %d vs %d", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("injection %d diverged: %v vs %v", i, l1[i], l2[i])
		}
	}
	if f1 != f2 {
		t.Fatalf("first injection diverged: %v vs %v", f1, f2)
	}
	if s1 != s2 {
		t.Fatalf("injection counters diverged: %+v vs %+v", s1, s2)
	}
}

func TestDrawsIndependentOfWindows(t *testing.T) {
	// The error/spike PRNG draws must not depend on whether a crash or gray
	// window was active: adding a window to a schedule must not reshuffle
	// which later operations fail. Compare the "error" injections (by seq)
	// of two runs differing only in a gray window.
	errorSeqs := func(gray bool) []uint64 {
		p := Uniform(0.2, 0)
		if gray {
			p.Gray = []Window{{From: 0, To: time.Hour}}
			p.GrayDelay = time.Microsecond
		}
		s := Wrap(dram.New(dram.DefaultParams(), 1), p, 77)
		key := kvstore.MakeKey(0x5000, 1)
		s.Put(0, key, storetest.Page(0))
		for i := 0; i < 200; i++ {
			s.Get(time.Duration(i)*time.Microsecond, key)
		}
		var seqs []uint64
		for _, inj := range s.Log() {
			if inj.Kind == "error" {
				seqs = append(seqs, inj.Seq)
			}
		}
		return seqs
	}
	a, b := errorSeqs(false), errorSeqs(true)
	if len(a) == 0 {
		t.Fatal("no errors injected; test is vacuous")
	}
	if len(a) != len(b) {
		t.Fatalf("error counts diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("error schedule shifted at %d: seq %d vs %d", i, a[i], b[i])
		}
	}
}

func TestNamePassthrough(t *testing.T) {
	s := quiet(1)
	if s.Name() != "faulty(dram)" {
		t.Fatalf("Name = %q", s.Name())
	}
	if !s.Local() {
		t.Fatal("dram-backed wrapper should report Local")
	}
	if s.Inner() == nil {
		t.Fatal("Inner is nil")
	}
}

func TestMultiPutFailsAsAUnit(t *testing.T) {
	// A MultiPut rejected by injection — crash window or transient error —
	// must leave the inner store completely untouched: the batch is one wire
	// operation, so the write-back engine may safely treat the whole flush
	// as not-flushed and retry it later.
	inner := dram.New(dram.DefaultParams(), 1)
	p := Params{
		Crashes:            []Window{{From: 0, To: time.Millisecond}},
		CrashRejectLatency: 2 * time.Microsecond,
	}
	s := Wrap(inner, p, 11)

	keys := []kvstore.Key{kvstore.MakeKey(0x1000, 1), kvstore.MakeKey(0x2000, 1)}
	pages := [][]byte{storetest.Page(1), storetest.Page(2)}

	done, err := s.MultiPut(500*time.Microsecond, keys, pages)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed inside the window", err)
	}
	if done != 502*time.Microsecond {
		t.Fatalf("crash reject at %v, want issue+reject latency", done)
	}
	if st := inner.Stats(); st.Puts != 0 || st.MultiPuts != 0 || st.BytesStored != 0 {
		t.Fatalf("crashed MultiPut reached the inner store: %+v", st)
	}

	// After the member recovers, the same batch succeeds atomically.
	done, err = s.MultiPut(2*time.Millisecond, keys, pages)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		got, _, err := inner.Get(done, key)
		if err != nil {
			t.Fatalf("key %d after recovery: %v", i, err)
		}
		// pages[i] is whatever the store handed back by now, not the data.
		if !bytes.Equal(got, storetest.Page(byte(i+1))) {
			t.Fatalf("key %d corrupted after recovery", i)
		}
	}
	if got := s.InjectStats().CrashRejects; got != 1 {
		t.Fatalf("CrashRejects = %d, want 1", got)
	}
}

func TestMultiPutTransientErrorLeavesInnerUntouched(t *testing.T) {
	inner := dram.New(dram.DefaultParams(), 1)
	p := Uniform(1.0, 0) // every op fails before reaching the inner store
	s := Wrap(inner, p, 13)
	keys := []kvstore.Key{kvstore.MakeKey(0x3000, 1)}
	// The injected failure takes no buffer either: the retry resubmits them.
	if err := storetest.MultiPutMustFail(t, s, 0, keys, [][]byte{storetest.Page(3)}); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if st := inner.Stats(); st.Puts != 0 || st.MultiPuts != 0 {
		t.Fatalf("failed MultiPut reached the inner store: %+v", st)
	}
}
