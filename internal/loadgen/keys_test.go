package loadgen

import (
	"testing"
	"time"
)

func TestKeyGenSpanAndDeterminism(t *testing.T) {
	specs := map[string]KeySpec{
		"zipfian":    {Dist: Zipfian, SpanPages: 64, WriteFrac: 0.3},
		"uniform":    {Dist: Uniform, SpanPages: 16, WriteFrac: 0.5},
		"sequential": {Dist: Sequential, SpanPages: 8},
	}
	for name, spec := range specs {
		a, err := newKeyGen(spec, 42, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := newKeyGen(spec, 42, nil)
		for i := 0; i < 2000; i++ {
			pa, wa := a.next()
			pb, wb := b.next()
			if pa != pb || wa != wb {
				t.Fatalf("%s: op %d diverged: (%d,%v) vs (%d,%v)", name, i, pa, wa, pb, wb)
			}
			if pa < 0 || pa >= spec.SpanPages {
				t.Fatalf("%s: op %d page %d outside span %d", name, i, pa, spec.SpanPages)
			}
		}
	}
}

func TestKeyGenSequentialCycles(t *testing.T) {
	g, err := newKeyGen(KeySpec{Dist: Sequential, SpanPages: 4}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		page, _ := g.next()
		if page != i%4 {
			t.Fatalf("op %d: page %d, want %d", i, page, i%4)
		}
	}
}

func TestKeyGenWriteFraction(t *testing.T) {
	g, err := newKeyGen(KeySpec{Dist: Uniform, SpanPages: 8, WriteFrac: 0.25}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	const ops = 10_000
	for i := 0; i < ops; i++ {
		if _, w := g.next(); w {
			writes++
		}
	}
	if frac := float64(writes) / ops; frac < 0.2 || frac > 0.3 {
		t.Fatalf("write fraction %v, want ≈0.25", frac)
	}
}

func TestKeyGenRejectsEmptySpan(t *testing.T) {
	if _, err := newKeyGen(KeySpec{Dist: Uniform, SpanPages: 0}, 1, nil); err == nil {
		t.Fatal("zero span accepted")
	}
	if _, err := newKeyGen(KeySpec{Dist: Zipfian, SpanPages: -3}, 1, nil); err == nil {
		t.Fatal("negative span accepted")
	}
}

func TestKeySpecCarriesSLO(t *testing.T) {
	spec := KeySpec{Dist: Uniform, SpanPages: 4, SLO: 25 * time.Microsecond}
	if spec.SLO != 25*time.Microsecond {
		t.Fatal("SLO not carried")
	}
}
