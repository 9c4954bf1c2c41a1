package clock_test

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"fluidmem/internal/blockdev"
	"fluidmem/internal/clock"
	"fluidmem/internal/core"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/memcached"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/swap"
	"fluidmem/internal/uffd"
)

// refNormFloat64 is the sampler's former normal draw, kept as the reference
// the 16-bit-lane version is held to: the same Irwin–Hall sum of 12
// uniforms, each from a 53-bit Float64, added as 12 floats.
func refNormFloat64(r *clock.Rand) float64 {
	sum := 0.0
	for i := 0; i < 12; i++ {
		sum += r.Float64()
	}
	return sum - 6
}

// refSample is the former LatencyModel.Sample: 12 words for the jitter, one
// for the tail decision and a second for the tail's magnitude.
func refSample(m clock.LatencyModel, r *clock.Rand) time.Duration {
	d := m.Base
	if m.Jitter > 0 {
		d += time.Duration(refNormFloat64(r) * float64(m.Jitter))
	}
	if m.TailProb > 0 && r.Float64() < m.TailProb {
		d += time.Duration(r.Float64() * float64(m.TailExtra))
	}
	if min := m.Base / 4; d < min {
		d = min
	}
	return d
}

// calibrationModels collects every LatencyModel of the calibration tables,
// by table and field name.
func calibrationModels(t *testing.T) map[string]clock.LatencyModel {
	models := make(map[string]clock.LatencyModel)
	add := func(table string, params any) {
		v := reflect.ValueOf(params)
		found := 0
		for i := 0; i < v.NumField(); i++ {
			if m, ok := v.Field(i).Interface().(clock.LatencyModel); ok {
				models[table+"."+v.Type().Field(i).Name] = m
				found++
			}
		}
		if found == 0 {
			t.Fatalf("%s: no LatencyModel field", table)
		}
	}
	add("uffd", uffd.DefaultParams())
	add("core.MonitorOps", core.DefaultMonitorOps())
	add("core.Compress", core.DefaultCompressParams(1<<20))
	add("dram", dram.DefaultParams())
	add("ramcloud", ramcloud.DefaultParams())
	add("memcached", memcached.DefaultParams())
	add("blockdev.pmem", blockdev.PmemParams(1<<30))
	add("blockdev.nvmeof", blockdev.NVMeoFParams(1<<30))
	add("blockdev.ssd", blockdev.SSDParams(1<<30))
	add("swap", swap.DefaultParams(1024))
	// cluster.Config's defaults (unexported): the store nodes' devices and
	// the control fabric, which is also zookeeper's simnet link.
	add("cluster", struct{ ReadLatency, WriteLatency, ControlLatency clock.LatencyModel }{
		clock.LatencyModel{Base: 5 * time.Microsecond, Jitter: 500 * time.Nanosecond},
		clock.LatencyModel{Base: 6 * time.Microsecond, Jitter: 500 * time.Nanosecond},
		clock.LatencyModel{Base: 2 * time.Millisecond, Jitter: 500 * time.Microsecond},
	})
	return models
}

// ksDraws is each sample's size in the KS tests below, and ksCritical the
// distance that rejects at α = 0.001: c(α) = sqrt(−ln(α/2)/2) over
// sqrt(n·m/(n+m)).
const ksDraws = 200_000

var ksCritical = math.Sqrt(-math.Log(0.001/2)/2) * math.Sqrt(2.0/ksDraws)

// ksStatistic is the two-sample Kolmogorov–Smirnov distance: the largest gap
// between the two empirical CDFs, ties stepped over together. It sorts a and b.
func ksStatistic(a, b []time.Duration) float64 {
	slices.Sort(a)
	slices.Sort(b)
	d := 0.0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		x := min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	return d
}

// tailStats samples the model's tail alone (no jitter, so any extra over Base
// is a tail event) and returns how often it fired and its mean extra.
func tailStats(m clock.LatencyModel, sample func(clock.LatencyModel, *clock.Rand) time.Duration, seed uint64, n int) (fired int, mean float64) {
	tailOnly := clock.LatencyModel{Base: m.Base, TailProb: m.TailProb, TailExtra: m.TailExtra}
	r := clock.NewRand(seed)
	sum := 0.0
	for i := 0; i < n; i++ {
		if extra := sample(tailOnly, r) - m.Base; extra > 0 {
			fired++
			sum += float64(extra)
		}
	}
	return fired, sum / float64(fired)
}

// TestSamplerMatchesReference holds every calibrated latency model to the
// law it had under the reference sampler: the two samplers' draws must pass a
// two-sample KS test at α = 0.001, and the tail must fire as often and add as
// much on average, each within four standard errors of the difference.
func TestSamplerMatchesReference(t *testing.T) {
	const n = ksDraws
	models := calibrationModels(t)
	names := make([]string, 0, len(models))
	for name := range models {
		names = append(names, name)
	}
	slices.Sort(names)
	for k, name := range names {
		m := models[name]
		t.Run(name, func(t *testing.T) {
			seed := uint64(1000 + 2*k)
			cur, ref := make([]time.Duration, n), make([]time.Duration, n)
			r, rr := clock.NewRand(seed), clock.NewRand(seed+1)
			for i := range cur {
				cur[i] = m.Sample(r)
				ref[i] = refSample(m, rr)
			}
			if d := ksStatistic(cur, ref); d > ksCritical {
				t.Errorf("%v: KS distance %.5f > %.5f (α = 0.001, %d draws each)", m, d, ksCritical, n)
			}
			if m.TailProb == 0 {
				return
			}
			fired, mean := tailStats(m, clock.LatencyModel.Sample, seed, n)
			refFired, refMean := tailStats(m, refSample, seed+1, n)
			p := m.TailProb
			if diff, se := float64(fired-refFired)/n, math.Sqrt(2*p*(1-p)/n); math.Abs(diff) > 4*se {
				t.Errorf("%v: tail fired %d times, reference %d (difference %.5f > 4·%.5f)", m, fired, refFired, diff, se)
			}
			se := float64(m.TailExtra) * math.Sqrt(1/(12*float64(fired))+1/(12*float64(refFired)))
			if math.Abs(mean-refMean) > 4*se {
				t.Errorf("%v: mean tail extra %.0f ns, reference %.0f ns (more than 4·%.0f ns apart)", m, mean, refMean, se)
			}
		})
	}
}

// TestSamplerReferenceDiscriminates shows the KS check has teeth: the same
// harness tells a model from one whose jitter is 5 % wider.
func TestSamplerReferenceDiscriminates(t *testing.T) {
	const n = ksDraws
	m := uffd.DefaultParams().Copy
	wider := m
	wider.Jitter = m.Jitter * 105 / 100
	cur, ref := make([]time.Duration, n), make([]time.Duration, n)
	r, rr := clock.NewRand(1), clock.NewRand(2)
	for i := range cur {
		cur[i] = wider.Sample(r)
		ref[i] = refSample(m, rr)
	}
	if d := ksStatistic(cur, ref); d <= ksCritical {
		t.Fatalf("KS distance %.5f ≤ %.5f: a 5 %% wider jitter went unnoticed", d, ksCritical)
	}
}
