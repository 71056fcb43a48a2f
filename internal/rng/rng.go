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

// Chance is a probability as an integer threshold on the 53 bits a
// Float64 draw uses: Hit(c) is true when those bits, as an integer k,
// are below c. ChanceOf converts a probability once, so a hot draw is
// a shift and an integer compare instead of a float conversion.
type Chance uint64

// ChanceOf returns the Chance that hits exactly when a Float64 draw
// from the same bits is below p: ⌈p·2⁵³⌉, clamped to [0, 2⁵³], with
// NaN (which no draw is below) at 0. The two agree on every draw: a
// draw is k/2⁵³ for an integer k < 2⁵³, and both the division and
// p·2⁵³ are exact (scaling by a power of two), so k/2⁵³ < p exactly
// when k < p·2⁵³, which for an integer k is k < ⌈p·2⁵³⌉.
func ChanceOf(p float64) Chance {
	switch {
	case !(p > 0): // zero, negative or NaN
		return 0
	case p >= 1:
		return 1 << 53
	}
	return Chance(math.Ceil(p * (1 << 53)))
}

// Hit draws once and reports whether the draw falls under c: for
// c = ChanceOf(p) it is exactly Float64() < p on the same stream.
func (s *Source) Hit(c Chance) bool {
	return Chance(s.Uint64()>>11) < c
}

// Split returns a new Source whose seed is derived from this source's
// stream. Independent subsystems each take a Split so that adding a
// consumer does not perturb the draws seen by others.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// ZipfTable is an immutable Zipf(n, theta) rank distribution over
// [0, n): rank i has weight 1/(i+1)^theta. Commercial workload
// footprints are famously Zipf-like; the workload package uses this to
// produce realistic block popularity skew. A table holds no source and
// is never written after NewZipfTable returns, so any number of
// samplers, on any goroutines, may share one.
//
// For n <= zipfTabulateLimit the table is the exact inverse CDF: cdf
// holds the normalised running sums, and guide is a Chen–Asau guide
// table of m entries, m the smallest power of two >= n, with guide[j]
// the first i such that cdf[i] >= j/m. A draw u in [0, 1) starts at
// guide[floor(u*m)] and steps forward while cdf[i] < u. That returns
// exactly the rank a binary search for the first cdf[i] >= u returns:
//   - m is a power of two, so u*m, its floor j and j/m are all exact:
//     j/m <= u < (j+1)/m, and j < m indexes the guide;
//   - cdf is non-decreasing (running sums of positive terms, each
//     divided by the same total), so every rank before guide[j] has
//     cdf < j/m <= u, and the forward step stops at the first cdf >= u;
//   - cdf[n-1] is sum/sum, which is exactly 1 > u, so the step always
//     stops inside the table.
//
// A bucket j whose next guide entry names the same rank (taking the
// entry past the last bucket as the first i with cdf[i] >= 1) holds
// one rank only: cdf[guide[j]] >= (j+1)/m > u, so the step stops at
// once. The table marks such a bucket with the int32 sign bit, and a
// draw that lands there returns its rank without loading the CDF.
//
// Larger n tabulates nothing: draws map u through the continuous Zipf
// inverse CDF, an analytic, rejection-free approximation adequate for
// workload skew.
type ZipfTable struct {
	n     int
	theta float64
	cdf   []float64 // non-nil when n is small enough to tabulate
	// guide[j] is the first i with cdf[i] >= j/len(guide), with
	// resolved set when bucket j holds that rank alone.
	guide []int32
}

// resolved marks a guide entry whose bucket holds a single rank.
const resolved = math.MinInt32

// zipfTabulateLimit is the largest n for which we precompute the CDF.
const zipfTabulateLimit = 1 << 16

// NewZipfTable builds the Zipf distribution over [0, n) with exponent
// theta > 0.
//
// hotpath:alloc at most one table per Zipf stream, built at construction or on a mix core's first draw, never per draw
func NewZipfTable(n int, theta float64) *ZipfTable {
	if n <= 0 {
		panic("rng: NewZipfTable with non-positive n")
	}
	t := &ZipfTable{n: n, theta: theta}
	if n > zipfTabulateLimit {
		return t
	}
	t.cdf = make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		t.cdf[i] = sum
	}
	for i := range t.cdf {
		t.cdf[i] /= sum
	}
	m := 1 << bits.Len(uint(n-1))
	t.guide = make([]int32, m)
	// One pass over the m+1 boundaries j/m: boundary j sets guide[j]
	// and resolves bucket j-1 when it names the same rank.
	i := 0
	for j := 0; j <= m; j++ {
		x := float64(j) / float64(m)
		for t.cdf[i] < x {
			i++
		}
		if j > 0 && t.guide[j-1] == int32(i) {
			t.guide[j-1] |= resolved
		}
		if j < m {
			t.guide[j] = int32(i)
		}
	}
	return t
}

// Sampler returns a Zipf sampler that draws ranks from t using src.
func (t *ZipfTable) Sampler(src *Source) Zipf {
	return Zipf{src: src, t: t}
}

// Zipf draws Zipf-distributed ranks from a shared ZipfTable with its
// own Source.
type Zipf struct {
	src *Source
	t   *ZipfTable
}

// Next returns the next Zipf-distributed rank.
func (z *Zipf) Next() int {
	return z.t.rank(z.src.Float64())
}

// rank maps a uniform draw u in [0, 1) to its Zipf rank.
func (t *ZipfTable) rank(u float64) int {
	if t.cdf != nil {
		i := t.guide[int(u*float64(len(t.guide)))]
		if i < 0 {
			return int(i &^ resolved)
		}
		for t.cdf[i] < u {
			i++
		}
		return int(i)
	}
	if t.theta == 1 {
		return int(math.Pow(float64(t.n), u)) - 1
	}
	oneMinus := 1 - t.theta
	x := math.Pow(u*(math.Pow(float64(t.n), oneMinus)-1)+1, 1/oneMinus)
	r := int(x) - 1
	if r < 0 {
		r = 0
	}
	if r >= t.n {
		r = t.n - 1
	}
	return r
}
