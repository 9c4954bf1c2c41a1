package ycsb

import (
	"testing"
	"time"
)

// fakeStore serves reads with a fixed latency and counts key frequencies.
type fakeStore struct {
	latency time.Duration
	counts  map[int]int
}

func (f *fakeStore) ReadRecord(now time.Duration, id int) (time.Duration, error) {
	if f.counts != nil {
		f.counts[id]++
	}
	return now + f.latency, nil
}

func TestRunValidation(t *testing.T) {
	s := &fakeStore{latency: time.Microsecond}
	if _, _, err := Run(0, s, Config{Records: 0, Operations: 1, ZipfTheta: 0.99}); err == nil {
		t.Fatal("zero records accepted")
	}
	if _, _, err := Run(0, s, Config{Records: 10, Operations: 0, ZipfTheta: 0.99}); err == nil {
		t.Fatal("zero ops accepted")
	}
	if _, _, err := Run(0, s, Config{Records: 10, Operations: 1, ZipfTheta: 1.5}); err == nil {
		t.Fatal("bad theta accepted")
	}
}

func TestRunRecordsSeriesAndSample(t *testing.T) {
	s := &fakeStore{latency: 100 * time.Microsecond}
	cfg := DefaultConfig(1000, 500)
	res, now, err := Run(0, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Operations != 500 || res.Latencies.Len() != 500 || res.Series.Len() != 500 {
		t.Fatalf("ops=%d sample=%d series=%d", res.Operations, res.Latencies.Len(), res.Series.Len())
	}
	if res.Latencies.Mean() != 100*time.Microsecond {
		t.Fatalf("mean = %v", res.Latencies.Mean())
	}
	wantNow := 500 * (100*time.Microsecond + cfg.ThinkTime)
	if now != wantNow {
		t.Fatalf("now = %v, want %v", now, wantNow)
	}
}

func TestZipfianSkew(t *testing.T) {
	z, err := NewZipfian(10000, 0.99, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// The hottest key must get far more than the uniform share (n/10000=20).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 1000 {
		t.Fatalf("hottest key got %d of %d draws; zipf(0.99) should be far hotter", max, n)
	}
	// But the tail still gets coverage: many distinct keys drawn.
	if len(counts) < 3000 {
		t.Fatalf("only %d distinct keys drawn", len(counts))
	}
}

func TestZipfianRange(t *testing.T) {
	z, err := NewZipfian(100, 0.99, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		k := z.Next()
		if k < 0 || k >= 100 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestZipfianScrambledNotClustered(t *testing.T) {
	// Hot keys must be spread across the keyspace, not concentrated at 0.
	z, err := NewZipfian(10000, 0.99, 11)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	hottest, hotCount := 0, 0
	for k, c := range counts {
		if c > hotCount {
			hottest, hotCount = k, c
		}
	}
	if hottest < 100 {
		t.Logf("hottest key is %d; scrambling usually spreads it", hottest)
	}
}

func TestZipfianDeterministic(t *testing.T) {
	a, _ := NewZipfian(1000, 0.99, 5)
	b, _ := NewZipfian(1000, 0.99, 5)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("sequence diverged")
		}
	}
}

func TestZipfianValidation(t *testing.T) {
	if _, err := NewZipfian(0, 0.99, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewZipfian(10, 0, 1); err == nil {
		t.Fatal("theta=0 accepted")
	}
}

// TestZipfianReseed: a reseeded generator draws what a new one with that
// seed draws, and leaves the one it came from alone.
func TestZipfianReseed(t *testing.T) {
	a, err := NewZipfian(96, 0.99, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Reseed(2)
	fresh, _ := NewZipfian(96, 0.99, 2)
	again, _ := NewZipfian(96, 0.99, 1)
	for i := 0; i < 10_000; i++ {
		if got, want := b.Next(), fresh.Next(); got != want {
			t.Fatalf("draw %d: reseeded %d, new %d", i, got, want)
		}
		if got, want := a.Next(), again.Next(); got != want {
			t.Fatalf("draw %d: original %d after reseeding, want %d", i, got, want)
		}
	}
}

// TestZipfianNextAllocFree: a draw is a table lookup and allocates nothing.
func TestZipfianNextAllocFree(t *testing.T) {
	z, err := NewZipfian(96, 0.99, 1)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() { sinkKey = z.Next() }); allocs != 0 {
		t.Fatalf("Zipfian.Next: %.1f allocations per draw, want 0", allocs)
	}
}

var sinkKey int

// BenchmarkZipfianNext is one draw over loadgen's hot span (96 pages, θ 0.99).
func BenchmarkZipfianNext(b *testing.B) {
	z, err := NewZipfian(96, 0.99, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkKey = z.Next()
	}
}

// BenchmarkNewZipfian is the table's construction at Fig. 5's size and skew
// (20 480 records, θ 0.6).
func BenchmarkNewZipfian(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewZipfian(20480, 0.6, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
