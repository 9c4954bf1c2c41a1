package core

import (
	"math"
	"time"
)

// Op names match the paper's Table I code paths.
const (
	OpUpdatePageCache = "UPDATE_PAGE_CACHE"
	OpInsertPageHash  = "INSERT_PAGE_HASH_NODE"
	OpInsertLRUCache  = "INSERT_LRU_CACHE_NODE"
	OpUffdZeroPage    = "UFFD_ZEROPAGE"
	OpUffdRemap       = "UFFD_REMAP"
	OpUffdCopy        = "UFFD_COPY"
	OpReadPage        = "READ_PAGE"
	OpWritePage       = "WRITE_PAGE"
	// Write-back engine extensions (not Table I rows): the eviction-path
	// zero scan and the clean-tracking write-protect ioctl.
	OpZeroScan         = "ZERO_SCAN"
	OpUffdWriteProtect = "UFFD_WRITEPROTECT"
)

// profOp indexes a code path in the profiler; the data plane records by
// index, and the names above survive only in Sample.
type profOp uint8

// Table I's row order.
const (
	opUpdatePageCache profOp = iota
	opInsertPageHash
	opInsertLRUCache
	opUffdZeroPage
	opUffdRemap
	opUffdCopy
	opReadPage
	opWritePage
	opZeroScan
	opUffdWriteProtect
	nOps
)

var opNames = [nOps]string{
	OpUpdatePageCache,
	OpInsertPageHash,
	OpInsertLRUCache,
	OpUffdZeroPage,
	OpUffdRemap,
	OpUffdCopy,
	OpReadPage,
	OpWritePage,
	OpZeroScan,
	OpUffdWriteProtect,
}

// Histogram geometry for OpProfile percentiles: fixed-width buckets sized
// for Table I's microsecond-scale code paths, with an overflow bucket whose
// observations report the tracked maximum.
const (
	profBucketWidth = 250 * time.Nanosecond
	profBuckets     = 2048 // covers [0, 512µs)
)

// OpProfile is a bounded per-code-path latency accumulator: exact mean and
// standard deviation from running sums, percentiles from a fixed-width
// histogram. Unlike a sample vector it holds O(1) memory regardless of run
// length and records without allocating — the property the fault hot path's
// allocation regression tests pin down.
type OpProfile struct {
	n          uint64
	sum, sumsq float64
	min, max   time.Duration
	buckets    [profBuckets + 1]uint64
}

// add records one observation.
func (o *OpProfile) add(d time.Duration) {
	if o.n == 0 || d < o.min {
		o.min = d
	}
	if d > o.max {
		o.max = d
	}
	o.n++
	f := float64(d)
	o.sum += f
	o.sumsq += f * f
	idx := int(d / profBucketWidth)
	if idx < 0 {
		idx = 0
	}
	if idx > profBuckets {
		idx = profBuckets
	}
	o.buckets[idx]++
}

// Len reports the number of observations.
func (o *OpProfile) Len() int { return int(o.n) }

// Mean returns the arithmetic mean, or 0 for an empty profile.
func (o *OpProfile) Mean() time.Duration {
	if o.n == 0 {
		return 0
	}
	return time.Duration(o.sum / float64(o.n))
}

// Stdev returns the population standard deviation, or 0 for fewer than two
// observations.
func (o *OpProfile) Stdev() time.Duration {
	if o.n < 2 {
		return 0
	}
	mean := o.sum / float64(o.n)
	v := o.sumsq/float64(o.n) - mean*mean
	if v < 0 {
		v = 0
	}
	return time.Duration(math.Sqrt(v))
}

// Min and Max return the extreme observations (0 when empty).
func (o *OpProfile) Min() time.Duration { return o.min }
func (o *OpProfile) Max() time.Duration { return o.max }

// Percentile returns the p-th percentile (p in [0, 100]) from the
// histogram: the upper edge of the bucket holding the rank, clamped to the
// tracked extremes. Overflow observations report the maximum.
func (o *OpProfile) Percentile(p float64) time.Duration {
	if o.n == 0 {
		return 0
	}
	if p <= 0 {
		return o.min
	}
	if p >= 100 {
		return o.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(o.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := 0; i <= profBuckets; i++ {
		seen += o.buckets[i]
		if seen >= rank {
			if i == profBuckets {
				return o.max
			}
			v := time.Duration(i+1) * profBucketWidth
			if v > o.max {
				v = o.max
			}
			if v < o.min {
				v = o.min
			}
			return v
		}
	}
	return o.max
}

// Profiler records per-code-path latencies, reproducing FluidMem's built-in
// ability to profile individual components of the fault path (§VI-C). Each
// code path's accumulator is allocated on its first observation; recording
// after that is allocation-free, so the profiler may stay enabled on the
// data plane's hot path.
type Profiler struct {
	ops [nOps]*OpProfile
}

// Record logs one op taking d.
func (p *Profiler) Record(op profOp, d time.Duration) {
	o := p.ops[op]
	if o == nil {
		o = &OpProfile{}
		p.ops[op] = o
	}
	o.add(d)
}

// Sample returns the profile for the named op, or nil if never recorded.
func (p *Profiler) Sample(name string) *OpProfile {
	for op, n := range opNames {
		if n == name {
			return p.ops[op]
		}
	}
	return nil
}
