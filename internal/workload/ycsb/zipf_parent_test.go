package ycsb

import (
	"math"
	"testing"

	"fluidmem/internal/clock"
)

// parentZipfian is Zipfian as it stood while Next evaluated the Gray et al.
// formula on every draw: the constructor and Next, copied. Only rng's type
// differs, so that a test can put a chosen word under the same Next.
type parentZipfian struct {
	n     int
	alpha float64
	zetan float64
	eta   float64
	rank1 float64 // 1+0.5^θ: draws with 1 <= u*zetan < rank1 are rank 1
	rng   interface{ Float64() float64 }
}

func newParentZipfian(n int, theta float64, seed uint64) *parentZipfian {
	z := &parentZipfian{n: n, rng: clock.NewRand(seed)}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	z.rank1 = 1 + math.Pow(0.5, theta)
	return z
}

// Next returns the next key.
func (z *parentZipfian) Next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	var rank int
	switch {
	case uz < 1:
		rank = 0
	case uz < z.rank1:
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.n {
		rank = z.n - 1
	}
	// Scramble: spread popular ranks over the keyspace (fnv-style).
	return int(scramble(uint64(rank)) % uint64(z.n))
}

// word is a one-word source: clock.Rand.Float64 of the word w = Uint64()>>11.
type word struct{ w uint64 }

func (s *word) Float64() float64 { return float64(s.w) / (1 << 53) }

// matchParent holds the table to the parent formula: draws draws from the
// same seed, then every word within radius of each step's first word.
func matchParent(t testing.TB, n int, theta float64, seed uint64, draws int, radius uint64) {
	t.Helper()
	z, err := NewZipfian(n, theta, seed)
	if err != nil {
		t.Fatal(err)
	}
	parent := newParentZipfian(n, theta, seed)
	for i := 0; i < draws; i++ {
		if got, want := z.Next(), parent.Next(); got != want {
			t.Fatalf("n=%d θ=%v seed %d draw %d: key %d, parent %d", n, theta, seed, i, got, want)
		}
	}
	at := &word{}
	parent.rng = at
	next := uint64(0) // the first word not yet compared
	for _, s := range z.starts[:len(z.starts)-1] {
		from := max(next, s-min(s, radius))
		to := min(s+radius+1, wordEnd)
		for w := from; w < to; w++ {
			at.w = w
			if got, want := z.key(w), parent.Next(); got != want {
				t.Fatalf("n=%d θ=%v word %#x (%d from a step start): key %d, parent %d",
					n, theta, w, int64(w-s), got, want)
			}
		}
		next = max(next, to)
	}
}

// TestZipfianTableMatchesParent holds the table to the formula at sizes the
// repository draws (96 in loadgen's scenarios, 20 480 in Fig. 5's YCSB run)
// and at the smallest, where the three cases crowd together, under YCSB's
// θ 0.99, Fig. 5's 0.6 (α = 2.5: the power moves least per base step, so a
// rank's boundary has the least margin) and two flatter skews: 10⁵ draws
// and every word within 64 of each step's first word (the fuzzer: 256).
func TestZipfianTableMatchesParent(t *testing.T) {
	for _, n := range []int{1, 2, 3, 96, 4096, 20480} {
		for _, theta := range []float64{0.99, 0.6, 0.3, 0.1} {
			matchParent(t, n, theta, uint64(n)*7+uint64(theta*100), 100_000, 64)
		}
	}
}

// FuzzZipfianMatchesParent varies n over [1, 2¹⁵], θ over (0, 1) and the
// seed: 10⁴ draws and every word within 256 of each step's first word.
func FuzzZipfianMatchesParent(f *testing.F) {
	thetaWord := func(theta float64) uint64 { return uint64(theta*(1<<52)) << 12 }
	f.Add(uint16(95), thetaWord(0.99), uint64(1))
	f.Add(uint16(1023), thetaWord(0.6), uint64(2))
	f.Add(uint16(2), thetaWord(0.1), uint64(3))
	f.Add(uint16(200), ^uint64(0), uint64(4)) // θ = 1 − 2⁻⁵³: α = 2⁵³
	f.Add(uint16(0), uint64(0), uint64(5))    // n = 1, θ = 2⁻⁵³
	f.Fuzz(func(t *testing.T, nRaw uint16, thetaRaw, seed uint64) {
		n := int(nRaw&0x7fff) + 1
		theta := (float64(thetaRaw>>12) + 0.5) / (1 << 52)
		matchParent(t, n, theta, seed, 10_000, 256)
	})
}
