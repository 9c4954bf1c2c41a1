package clock

// Rand is a small, fast, deterministic PRNG (SplitMix64 seeded xorshift).
// Components own their generator so that adding randomness to one device does
// not perturb another device's sequence.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded from seed. Two generators with the same
// seed produce identical sequences.
func NewRand(seed uint64) *Rand {
	// SplitMix64 step to avoid weak states for small seeds (including 0).
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x2545f4914f6cdd1d
	}
	return &Rand{state: z}
}

// Uint64 returns the next pseudo-random value (xorshift64*).
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("clock: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns an approximately standard-normal variate: the
// Irwin–Hall sum of 12 uniforms minus 6, so mean 0, variance 1 − 2⁻³²,
// kurtosis 2.9 and support strictly inside [−6, 6]. Each uniform is a
// 16-bit lane k of one of three Uint64 words, u = (k + ½)/2¹⁶; the lanes are
// summed as integers, two per 64-bit add, and only the total becomes a float.
func (r *Rand) NormFloat64() float64 {
	const lanes = 0x0000ffff0000ffff
	a, b, c := r.Uint64(), r.Uint64(), r.Uint64()
	// Two 32-bit accumulators, each a sum of six 16-bit lanes (< 2²⁰).
	s := a&lanes + a>>16&lanes + b&lanes + b>>16&lanes + c&lanes + c>>16&lanes
	k := int64(s&0xffffffff + s>>32)
	// Σ(kᵢ + ½)/2¹⁶ − 6 = (Σkᵢ − (6·2¹⁶ − 6))/2¹⁶, exact in float64.
	return float64(k-6<<16+6) / (1 << 16)
}
