// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Every source of randomness in the reproduction — workload address
// streams, the random choice of d-group at which distance replacement
// stops, and the random in-d-group victim selection the paper mandates
// (§3.3.2: "This choice is at random as well because LRU requires
// O(n^2) hardware") — draws from seeded streams of this package, so
// every experiment is bit-reproducible.
package rng

import (
	"math"
	"math/bits"
)

// Source is a splitmix64 generator. The zero value is a valid generator
// seeded with 0; use New to seed explicitly. splitmix64 passes BigCrush
// and is the canonical seeder for xoshiro-family generators, while
// being trivially small and allocation-free.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and avoids the
	// modulo on the fast path.
	un := uint64(n)
	v := s.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = s.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Geometric returns a sample from a geometric distribution with success
// probability p, i.e. the number of failures before the first success
// (support 0, 1, 2, ...). For p >= 1 it returns 0.
func (s *Source) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric with non-positive p")
	}
	n := 0
	for !s.Bool(p) {
		n++
		if n >= 1<<20 { // safety bound; astronomically unlikely for sane p
			break
		}
	}
	return n
}

// Split returns a new Source whose seed is derived from this source's
// stream. Independent subsystems each take a Split so that adding a
// consumer does not perturb the draws seen by others.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// Zipf generates Zipf-distributed ranks in [0, n) with exponent theta.
// Commercial workload footprints are famously Zipf-like; the workload
// package uses this to produce realistic block popularity skew.
type Zipf struct {
	src   *Source
	n     int
	theta float64
	// alias tables would be overkill; we use the classic inverse-CDF
	// approximation of Knuth vol. 3 via precomputed harmonic sums for
	// small n, and rejection sampling for large n.
	cdf []float64 // non-nil when n is small enough to tabulate
}

// zipfTabulateLimit is the largest n for which we precompute the CDF.
const zipfTabulateLimit = 1 << 16

// NewZipf returns a Zipf sampler over [0, n) with exponent theta > 0.
func NewZipf(src *Source, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	z := &Zipf{src: src, n: n, theta: theta}
	if n <= zipfTabulateLimit {
		z.cdf = make([]float64, n)
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += 1 / powFloat(float64(i+1), theta)
			z.cdf[i] = sum
		}
		for i := range z.cdf {
			z.cdf[i] /= sum
		}
	}
	return z
}

// Next returns the next Zipf-distributed rank.
func (z *Zipf) Next() int {
	if z.cdf != nil {
		u := z.src.Float64()
		// Binary search the CDF.
		lo, hi := 0, len(z.cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if z.cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	// Rejection-free approximate inverse for large n: map a uniform
	// through the continuous Zipf inverse CDF. Adequate for workload
	// skew purposes.
	u := z.src.Float64()
	if z.theta == 1 {
		return int(powFloat(float64(z.n), u)) - 1
	}
	oneMinus := 1 - z.theta
	x := powFloat(u*(powFloat(float64(z.n), oneMinus)-1)+1, 1/oneMinus)
	r := int(x) - 1
	if r < 0 {
		r = 0
	}
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

func powFloat(x, y float64) float64 {
	return math.Pow(x, y)
}
