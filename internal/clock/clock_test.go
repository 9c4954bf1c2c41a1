package clock

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	c := New()
	c.Advance(5 * time.Microsecond)
	c.Advance(7 * time.Microsecond)
	if got, want := c.Now(), 12*time.Microsecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	New().Advance(-1)
}

func TestClockAdvanceTo(t *testing.T) {
	c := New()
	c.AdvanceTo(10 * time.Microsecond)
	if got, want := c.Now(), 10*time.Microsecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
	// Moving to the past is a no-op.
	c.AdvanceTo(3 * time.Microsecond)
	if got, want := c.Now(), 10*time.Microsecond; got != want {
		t.Fatalf("Now() after past AdvanceTo = %v, want %v", got, want)
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		c := New()
		prev := c.Now()
		for _, s := range steps {
			c.Advance(time.Duration(s))
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at step %d", i)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestRandZeroSeedUsable(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRandIntnNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

// TestRandNormFloat64Moments holds the jitter's law to the Irwin–Hall sum of
// 12 uniforms: bounded by ±6, mean 0, variance 1, kurtosis 3 − 6/60 = 2.9
// (a true Gaussian's is 3), and successive draws uncorrelated.
func TestRandNormFloat64Moments(t *testing.T) {
	r := NewRand(11)
	const n = 1 << 22 // the kurtosis estimate's standard error is ≈ 0.0025 here
	var s1, s2, s3, s4, lag, prev float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		if v < -6 || v > 6 {
			t.Fatalf("draw %d = %v, outside [-6, 6]", i, v)
		}
		s1 += v
		s2 += v * v
		s3 += v * v * v
		s4 += v * v * v * v
		lag += v * prev
		prev = v
	}
	mean := s1 / n
	m2, m3, m4 := s2/n, s3/n, s4/n
	variance := m2 - mean*mean
	kurtosis := (m4 - 4*mean*m3 + 6*mean*mean*m2 - 3*mean*mean*mean*mean) / (variance * variance)
	corr := (lag/(n-1) - mean*mean) / variance
	if math.Abs(mean) > 0.005 {
		t.Errorf("mean = %v, want 0 ± 0.005", mean)
	}
	if math.Abs(variance-1) > 0.01 {
		t.Errorf("variance = %v, want 1 ± 0.01", variance)
	}
	if math.Abs(kurtosis-2.9) > 0.01 {
		t.Errorf("kurtosis = %v, want 2.90 ± 0.01", kurtosis)
	}
	if math.Abs(corr) > 0.005 {
		t.Errorf("lag-1 correlation = %v, want 0 ± 0.005", corr)
	}
}

func TestLatencyModelFixed(t *testing.T) {
	m := Fixed(10 * time.Microsecond)
	r := NewRand(3)
	for i := 0; i < 100; i++ {
		if got := m.Sample(r); got != 10*time.Microsecond {
			t.Fatalf("fixed model sampled %v", got)
		}
	}
}

func TestLatencyModelJitterMean(t *testing.T) {
	m := LatencyModel{Base: 100 * time.Microsecond, Jitter: 5 * time.Microsecond}
	r := NewRand(5)
	const n = 50000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += m.Sample(r)
	}
	mean := sum / n
	if mean < 98*time.Microsecond || mean > 102*time.Microsecond {
		t.Fatalf("mean = %v, want ~100µs", mean)
	}
}

func TestLatencyModelFloor(t *testing.T) {
	m := LatencyModel{Base: 8 * time.Microsecond, Jitter: 100 * time.Microsecond}
	r := NewRand(5)
	for i := 0; i < 10000; i++ {
		if got := m.Sample(r); got < 2*time.Microsecond {
			t.Fatalf("sample %v below floor Base/4", got)
		}
	}
}

// TestLatencyModelTail holds the tail to its documented law: it fires with
// probability TailProb and adds an extra uniform in [0, TailExtra), so every
// extra is below TailExtra and their mean is TailExtra/2.
func TestLatencyModelTail(t *testing.T) {
	m := LatencyModel{Base: 2 * time.Microsecond, TailProb: 0.05, TailExtra: 100 * time.Microsecond}
	r := NewRand(6)
	tail, sum := 0, 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		extra := m.Sample(r) - m.Base
		if extra < 0 || extra >= m.TailExtra {
			t.Fatalf("tail extra %v outside [0, %v)", extra, m.TailExtra)
		}
		if extra > 0 {
			tail++
			sum += float64(extra)
		}
	}
	frac := float64(tail) / n
	if frac < 0.045 || frac > 0.055 {
		t.Errorf("tail fraction = %v, want 0.05 ± 0.005", frac)
	}
	mean, want := sum/float64(tail), float64(m.TailExtra)/2
	if se := float64(m.TailExtra) / math.Sqrt(12*float64(tail)); math.Abs(mean-want) > 4*se {
		t.Errorf("mean tail extra = %.0f ns, want %.0f ± %.0f ns", mean, want, 4*se)
	}
}

// TestSampleWords pins what one Sample costs in random words — none for a
// fixed model, one for the tail decision (which also yields its magnitude),
// three for the jitter — whether or not the tail fires.
func TestSampleWords(t *testing.T) {
	const base, jitter, extra = time.Microsecond, 100 * time.Nanosecond, time.Microsecond
	for _, c := range []struct {
		name  string
		m     LatencyModel
		words int
	}{
		{"fixed", Fixed(base), 0},
		{"tail only", LatencyModel{Base: base, TailProb: 0.5, TailExtra: extra}, 1},
		{"jitter only", LatencyModel{Base: base, Jitter: jitter}, 3},
		{"jitter and tail", LatencyModel{Base: base, Jitter: jitter, TailProb: 0.5, TailExtra: extra}, 4},
	} {
		var fired [2]int
		for seed := uint64(0); seed < 64; seed++ {
			r, ref := NewRand(seed), NewRand(seed)
			c.m.Sample(r)
			if c.m.TailProb > 0 {
				decision := *ref // the tail decides on the sample's last word
				for i := 1; i < c.words; i++ {
					decision.Uint64()
				}
				if decision.Float64() < c.m.TailProb {
					fired[1]++
				} else {
					fired[0]++
				}
			}
			for i := 0; i < c.words; i++ {
				ref.Uint64()
			}
			if *r != *ref {
				t.Fatalf("%s, seed %d: one Sample did not advance the generator by exactly %d words", c.name, seed, c.words)
			}
		}
		if c.m.TailProb > 0 && (fired[0] == 0 || fired[1] == 0) {
			t.Errorf("%s: the tail fired %d and held %d times in 64 seeds; both branches must be pinned", c.name, fired[1], fired[0])
		}
	}
}

func TestDeviceQueueing(t *testing.T) {
	d := NewDevice(Fixed(10*time.Microsecond), 1)
	// Two requests at t=0: the second queues behind the first.
	c1 := d.Submit(0)
	c2 := d.Submit(0)
	if c1 != 10*time.Microsecond {
		t.Fatalf("first completion = %v, want 10µs", c1)
	}
	if c2 != 20*time.Microsecond {
		t.Fatalf("queued completion = %v, want 20µs", c2)
	}
}

func TestDeviceIdleRestart(t *testing.T) {
	d := NewDevice(Fixed(10*time.Microsecond), 1)
	d.Submit(0)
	// A request arriving after the device is idle starts immediately.
	c := d.Submit(100 * time.Microsecond)
	if c != 110*time.Microsecond {
		t.Fatalf("completion = %v, want 110µs", c)
	}
}

func TestDeviceSubmitNAmortised(t *testing.T) {
	d := NewDevice(Fixed(20*time.Microsecond), 1)
	batch := d.Submit(0)
	d.Reset()
	batched := d.SubmitN(0, 8)
	var serial time.Duration
	d.Reset()
	for i := 0; i < 8; i++ {
		serial = d.Submit(0)
	}
	if batched <= batch {
		t.Fatalf("batch of 8 (%v) should cost more than one op (%v)", batched, batch)
	}
	if batched >= serial {
		t.Fatalf("batch of 8 (%v) should cost less than 8 serial ops (%v)", batched, serial)
	}
}

func TestDeviceSubmitNZero(t *testing.T) {
	d := NewDevice(Fixed(time.Microsecond), 1)
	if got := d.SubmitN(5, 0); got != 5 {
		t.Fatalf("SubmitN(5, 0) = %v, want 5", got)
	}
}

func TestDeviceCompletionNeverBeforeSubmission(t *testing.T) {
	f := func(seed uint64, offsets []uint16) bool {
		d := NewDevice(LatencyModel{
			Base:      3 * time.Microsecond,
			Jitter:    time.Microsecond,
			TailProb:  0.01,
			TailExtra: 50 * time.Microsecond,
		}, seed)
		now := time.Duration(0)
		for _, off := range offsets {
			now += time.Duration(off)
			if done := d.Submit(now); done < now {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

var (
	normSink   float64
	sampleSink time.Duration
)

// BenchmarkNormFloat64 is the jitter draw's ledger row.
func BenchmarkNormFloat64(b *testing.B) {
	r := NewRand(1)
	b.ReportAllocs()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += r.NormFloat64()
	}
	normSink = acc
}

// BenchmarkSample is the modelled latency's ledger row, jitter and tail both
// on: the shape of uffd's Copy, the commonest full model.
func BenchmarkSample(b *testing.B) {
	r := NewRand(1)
	m := LatencyModel{Base: 3890 * time.Nanosecond, Jitter: 770 * time.Nanosecond, TailProb: 0.01, TailExtra: 1540 * time.Nanosecond}
	b.ReportAllocs()
	var acc time.Duration
	for i := 0; i < b.N; i++ {
		acc += m.Sample(r)
	}
	sampleSink = acc
}
