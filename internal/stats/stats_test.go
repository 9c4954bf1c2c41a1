package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func sampleOf(us ...int) *Sample {
	s := NewSample(len(us))
	for _, v := range us {
		s.Add(time.Duration(v) * time.Microsecond)
	}
	return s
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Stdev() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should summarise to zeros")
	}
	if s.Percentile(50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestSampleMean(t *testing.T) {
	s := sampleOf(10, 20, 30)
	if got, want := s.Mean(), 20*time.Microsecond; got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
}

func TestSampleStdev(t *testing.T) {
	s := sampleOf(10, 10, 10)
	if got := s.Stdev(); got != 0 {
		t.Fatalf("Stdev of constant sample = %v, want 0", got)
	}
	s2 := sampleOf(0, 20)
	if got, want := s2.Stdev(), 10*time.Microsecond; got != want {
		t.Fatalf("Stdev = %v, want %v", got, want)
	}
}

func TestSampleMinMax(t *testing.T) {
	s := sampleOf(5, 1, 9, 3)
	if got := s.Min(); got != time.Microsecond {
		t.Fatalf("Min = %v", got)
	}
	if got := s.Max(); got != 9*time.Microsecond {
		t.Fatalf("Max = %v", got)
	}
}

func TestPercentileEndpoints(t *testing.T) {
	s := sampleOf(1, 2, 3, 4, 5)
	if got := s.Percentile(0); got != time.Microsecond {
		t.Fatalf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 5*time.Microsecond {
		t.Fatalf("p100 = %v", got)
	}
	if got := s.Percentile(50); got != 3*time.Microsecond {
		t.Fatalf("p50 = %v", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	s := sampleOf(0, 100)
	if got, want := s.Percentile(25), 25*time.Microsecond; got != want {
		t.Fatalf("p25 = %v, want %v", got, want)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, pa, pb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSample(len(raw))
		for _, v := range raw {
			s.Add(time.Duration(v))
		}
		a := float64(pa) / 2.55 // map to [0,100]
		b := float64(pb) / 2.55
		if a > b {
			a, b = b, a
		}
		return s.Percentile(a) <= s.Percentile(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHarmonicMean(t *testing.T) {
	hm, err := HarmonicMean([]float64{1, 1, 1})
	if err != nil || hm != 1 {
		t.Fatalf("HarmonicMean(1,1,1) = %v, %v", hm, err)
	}
	hm, err = HarmonicMean([]float64{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hm-3) > 1e-9 {
		t.Fatalf("HarmonicMean(2,6) = %v, want 3", hm)
	}
}

func TestHarmonicMeanDominatedBySlowest(t *testing.T) {
	hm, err := HarmonicMean([]float64{1000, 1000, 1})
	if err != nil {
		t.Fatal(err)
	}
	if hm > 3 {
		t.Fatalf("harmonic mean %v should be pulled toward the slowest rate", hm)
	}
}

func TestHarmonicMeanErrors(t *testing.T) {
	if _, err := HarmonicMean(nil); err == nil {
		t.Fatal("want error for empty slice")
	}
	if _, err := HarmonicMean([]float64{1, 0}); err == nil {
		t.Fatal("want error for zero rate")
	}
	if _, err := HarmonicMean([]float64{-1}); err == nil {
		t.Fatal("want error for negative rate")
	}
}

func TestMicros(t *testing.T) {
	if got := Micros(1500 * time.Nanosecond); got != 1.5 {
		t.Fatalf("Micros = %v, want 1.5", got)
	}
}

func TestTimeSeriesMean(t *testing.T) {
	var ts TimeSeries
	ts.Add(0, 10*time.Microsecond)
	ts.Add(time.Second, 30*time.Microsecond)
	if got, want := ts.Mean(), 20*time.Microsecond; got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
}

func TestTimeSeriesBuckets(t *testing.T) {
	var ts TimeSeries
	for i := 0; i < 100; i++ {
		ts.Add(time.Duration(i)*time.Second, time.Duration(i)*time.Microsecond)
	}
	buckets := ts.Buckets(10)
	if len(buckets) != 10 {
		t.Fatalf("len(buckets) = %d, want 10", len(buckets))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].At <= buckets[i-1].At {
			t.Fatal("bucket midpoints not increasing")
		}
		if buckets[i].Value <= buckets[i-1].Value {
			t.Fatal("ramp series should have increasing bucket means")
		}
	}
}

func TestTimeSeriesBucketsSingle(t *testing.T) {
	var ts TimeSeries
	ts.Add(5*time.Second, 7*time.Microsecond)
	buckets := ts.Buckets(4)
	if len(buckets) != 1 || buckets[0].Value != 7*time.Microsecond {
		t.Fatalf("buckets = %+v", buckets)
	}
}

func TestTimeSeriesEmptyBuckets(t *testing.T) {
	var ts TimeSeries
	if got := ts.Buckets(5); got != nil {
		t.Fatalf("empty Buckets = %v, want nil", got)
	}
}

func TestRenderCDFASCIIIncludesSummary(t *testing.T) {
	s := sampleOf(1, 2, 3)
	out := RenderCDFASCII("test", s, 20)
	if out == "" || len(out) < 10 {
		t.Fatalf("render too short: %q", out)
	}
	var empty Sample
	if got := RenderCDFASCII("e", &empty, 20); got != "e: (no samples)" {
		t.Fatalf("empty render = %q", got)
	}
}
