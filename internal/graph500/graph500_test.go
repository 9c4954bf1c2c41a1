package graph500

import (
	"testing"
	"time"

	"fluidmem/internal/clock"

	"fluidmem/internal/core"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/vm"
)

// newGuest builds a FluidMem DRAM-backed guest with the given local budget.
func newGuest(t *testing.T, localPages int, guestBytes uint64) *vm.VM {
	t.Helper()
	cfg := core.DefaultConfig(dram.New(dram.DefaultParams(), 5), localPages)
	mon, err := core.NewMonitor(cfg, nil, "hyp")
	if err != nil {
		t.Fatal(err)
	}
	base := uint64(0x7f00_0000_0000)
	if _, err := mon.RegisterRange(base, guestBytes, 1); err != nil {
		t.Fatal(err)
	}
	guest, err := vm.New(vm.Config{Name: "g", MemBytes: guestBytes, PID: 1, Base: base}, mon)
	if err != nil {
		t.Fatal(err)
	}
	return guest
}

func smallConfig(scale int) Config {
	cfg := DefaultConfig(scale)
	cfg.Roots = 4
	cfg.Validate = true
	return cfg
}

func TestRunValidation(t *testing.T) {
	g := newGuest(t, 1024, 64<<20)
	if _, _, err := Run(0, g, Config{Scale: 1}); err == nil {
		t.Fatal("scale 1 accepted")
	}
	if _, _, err := Run(0, g, Config{Scale: 8, EdgeFactor: 0, Roots: 1}); err == nil {
		t.Fatal("edge factor 0 accepted")
	}
	if _, _, err := Run(0, g, Config{Scale: 8, EdgeFactor: 4, Roots: 0}); err == nil {
		t.Fatal("zero roots accepted")
	}
}

func TestRunProducesValidBFS(t *testing.T) {
	g := newGuest(t, 4096, 64<<20)
	res, now, err := Run(0, g, smallConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Vertices != 512 || res.Edges != 512*16 {
		t.Fatalf("graph = %d vertices, %d edges", res.Vertices, res.Edges)
	}
	if len(res.TEPS) != 4 {
		t.Fatalf("TEPS runs = %d", len(res.TEPS))
	}
	for i, teps := range res.TEPS {
		if teps <= 0 {
			t.Fatalf("TEPS[%d] = %v", i, teps)
		}
	}
	if res.HarmonicMeanTEPS <= 0 {
		t.Fatal("harmonic mean missing")
	}
	if now <= 0 || res.TraversalTime <= 0 || res.ConstructionTime <= 0 {
		t.Fatal("times missing")
	}
}

func TestMemoryBytesEstimate(t *testing.T) {
	// scale 10, ef 16: V=1024, E=16384; three page-rounded segments of
	// 1025, 32768, and 1024 words.
	round := func(b uint64) uint64 { return (b + vm.PageSize - 1) &^ uint64(vm.PageSize-1) }
	want := round(1025*8) + round(32768*8) + round(1024*8)
	if got := MemoryBytes(10, 16); got != want {
		t.Fatalf("MemoryBytes = %d, want %d", got, want)
	}
}

func TestGraphFitsEstimate(t *testing.T) {
	g := newGuest(t, 65536, 256<<20)
	res, _, err := Run(0, g, smallConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.MemoryBytes != MemoryBytes(10, 16) {
		t.Fatalf("actual %d, estimate %d", res.MemoryBytes, MemoryBytes(10, 16))
	}
}

func TestTEPSDegradesUnderMemoryPressure(t *testing.T) {
	// The same graph, local memory 2× WSS vs 0.25× WSS: pressure must cut
	// TEPS substantially (Figure 4's qualitative core).
	run := func(localPages int) float64 {
		g := newGuest(t, localPages, 256<<20)
		cfg := smallConfig(10)
		cfg.Validate = false
		res, _, err := Run(0, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.HarmonicMeanTEPS
	}
	wssPages := int(MemoryBytes(10, 16)/vm.PageSize) + 1
	roomy := run(2 * wssPages)
	tight := run(wssPages / 4)
	if tight >= roomy {
		t.Fatalf("TEPS under pressure (%v) not below roomy (%v)", tight, roomy)
	}
	if tight > roomy/2 {
		t.Fatalf("pressure only cost %.1f%%; expected a large hit", 100*(1-tight/roomy))
	}
}

func TestHarmonicMeanBelowArithmetic(t *testing.T) {
	g := newGuest(t, 4096, 64<<20)
	res, _, err := Run(0, g, smallConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	var arith float64
	for _, teps := range res.TEPS {
		arith += teps
	}
	arith /= float64(len(res.TEPS))
	if res.HarmonicMeanTEPS > arith+1e-9 {
		t.Fatalf("harmonic %v > arithmetic %v", res.HarmonicMeanTEPS, arith)
	}
}

func TestGeneratorDeterministicAndSkewed(t *testing.T) {
	a1, b1 := generateEdges(clock.NewRand(42), 10, 4096)
	a2, b2 := generateEdges(clock.NewRand(42), 10, 4096)
	for i := range a1 {
		if a1[i] != a2[i] || b1[i] != b2[i] {
			t.Fatal("generator not deterministic")
		}
	}
	// R-MAT skew: low-numbered vertices get far more edge endpoints.
	lowHalf := 0
	for i := range a1 {
		if a1[i] < 512 {
			lowHalf++
		}
	}
	frac := float64(lowHalf) / float64(len(a1))
	if frac < 0.6 {
		t.Fatalf("low-half endpoint fraction = %v; R-MAT should be skewed", frac)
	}
}

func TestBFSTouchesAllReachable(t *testing.T) {
	g := newGuest(t, 65536, 64<<20)
	cfg := smallConfig(8)
	cfg.Roots = 1
	res, now, err := Run(0, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	_ = now
	// Validation already ran (cfg.Validate); reaching here means the parent
	// tree was consistent.
}

func TestConstructionExcludedFromTEPS(t *testing.T) {
	g := newGuest(t, 65536, 64<<20)
	res, _, err := Run(0, g, smallConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	// TEPS must be computed from traversal time only: reconstruct the
	// slowest-root bound and check against total time including build.
	total := res.ConstructionTime + res.TraversalTime
	perRoot := res.TraversalTime / time.Duration(len(res.TEPS))
	if perRoot >= total {
		t.Fatal("bookkeeping inconsistent")
	}
}

// switchEdges is the generator before its quadrant became three threshold
// compares: a switch over the cumulative initiator probabilities.
func switchEdges(rng *clock.Rand, scale, nEdges int) (src, dst []uint32) {
	src = make([]uint32, nEdges)
	dst = make([]uint32, nEdges)
	for i := 0; i < nEdges; i++ {
		var u, v uint32
		for level := 0; level < scale; level++ {
			r := rng.Float64()
			var bitU, bitV uint32
			switch {
			case r < initiatorA:
			case r < initiatorA+initiatorB:
				bitV = 1
			case r < initiatorA+initiatorB+initiatorC:
				bitU = 1
			default:
				bitU, bitV = 1, 1
			}
			u = u<<1 | bitU
			v = v<<1 | bitV
		}
		src[i], dst[i] = u, v
	}
	return src, dst
}

// TestGeneratorMatchesSwitch: the branch-free quadrant gives the switch's
// edge lists bit for bit, at every scale the experiments use.
func TestGeneratorMatchesSwitch(t *testing.T) {
	for scale := 4; scale <= 16; scale++ {
		for _, seed := range []uint64{1, 7, 301} {
			nEdges := 16 << scale
			src, dst := generateEdges(clock.NewRand(seed), scale, nEdges)
			wantSrc, wantDst := switchEdges(clock.NewRand(seed), scale, nEdges)
			for i := range src {
				if src[i] != wantSrc[i] || dst[i] != wantDst[i] {
					t.Fatalf("scale %d seed %d edge %d: (%d,%d), switch gives (%d,%d)",
						scale, seed, i, src[i], dst[i], wantSrc[i], wantDst[i])
				}
			}
		}
	}
}
