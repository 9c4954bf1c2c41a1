package loadgen

import (
	"fmt"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/workload/ycsb"
)

// KeyDist picks the key-popularity distribution of a tenant's page touches.
type KeyDist uint8

const (
	// Zipfian is the YCSB-style scrambled zipfian over the tenant's span —
	// the hot-key skew of real serving workloads (theta 0.99).
	Zipfian KeyDist = iota
	// Uniform touches every page of the span equally.
	Uniform
	// Sequential cycles the span in order (a scan).
	Sequential
)

// KeySpec describes what a tenant's operations touch.
type KeySpec struct {
	// Dist is the key distribution; SpanPages the tenant's keyspace
	// (working-set span) in pages.
	Dist      KeyDist
	SpanPages int
	// WriteFrac is the fraction of operations that write.
	WriteFrac float64
	// SLO is the tenant's p99 fault-latency target (0 = none); carried
	// here so one spec fully describes a tenant's workload contract.
	SLO time.Duration
}

// keyGen turns a KeySpec into a deterministic per-tenant stream of
// (page, write) pairs. All randomness comes from the tenant's own seeded
// generators, so the stream is independent of every other tenant and of
// service timing — the open-loop property.
type keyGen struct {
	spec   KeySpec
	r      *clock.Rand
	zipf   *ycsb.Zipfian
	cursor int
}

// newKeyGen builds a tenant's key stream from its spec and seed. A Zipfian
// stream reads its span's table from tables if one is there, and
// leaves the table it builds there otherwise (tables may be nil): the
// tenants of a run share one table per span.
func newKeyGen(spec KeySpec, seed uint64, tables map[int]*ycsb.Zipfian) (*keyGen, error) {
	if spec.SpanPages < 1 {
		return nil, fmt.Errorf("loadgen: key span must be >= 1 page, got %d", spec.SpanPages)
	}
	g := &keyGen{spec: spec, r: clock.NewRand(seed ^ 0xfeed_face_cafe)}
	if spec.Dist == Zipfian {
		if z := tables[spec.SpanPages]; z != nil {
			g.zipf = z.Reseed(seed ^ 0x5ca1_ab1e)
			return g, nil
		}
		z, err := ycsb.NewZipfian(spec.SpanPages, 0.99, seed^0x5ca1_ab1e)
		if err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		g.zipf = z
		if tables != nil {
			tables[spec.SpanPages] = z
		}
	}
	return g, nil
}

// next returns the page index and write flag of the tenant's next op.
func (g *keyGen) next() (page int, write bool) {
	write = g.spec.WriteFrac > 0 && g.r.Float64() < g.spec.WriteFrac
	switch g.spec.Dist {
	case Uniform:
		page = g.r.Intn(g.spec.SpanPages)
	case Sequential:
		page = g.cursor % g.spec.SpanPages
		g.cursor++
	default:
		page = g.zipf.Next()
	}
	return page, write
}
