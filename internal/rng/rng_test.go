package rng

import (
	"fmt"
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sources with equal seeds diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws out of 100", same)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(7)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("bucket %d: %d draws, want ~%.0f (±5%%)", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestHitProbability(t *testing.T) {
	s := New(11)
	c := ChanceOf(0.3)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if s.Hit(c) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Hit(ChanceOf(0.3)) rate = %.4f, want 0.3±0.01", got)
	}
}

// yielding returns a Source whose next Uint64 is v, by running
// splitmix64's output mix backwards from v to the state that yields it.
func yielding(v uint64) *Source {
	unshift := func(y uint64, n uint) uint64 { // inverts y ^ y>>n
		x := y
		for i := uint(0); i < 64; i += n {
			x = y ^ x>>n
		}
		return x
	}
	inverse := func(c uint64) uint64 { // c·inv = 1 mod 2⁶⁴, c odd
		inv := c
		for i := 0; i < 5; i++ {
			inv *= 2 - c*inv
		}
		return inv
	}
	z := unshift(v, 31) * inverse(0x94d049bb133111eb)
	z = unshift(z, 27) * inverse(0xbf58476d1ce4e5b9)
	z = unshift(z, 30)
	return &Source{state: z - 0x9e3779b97f4a7c15}
}

// TestChanceOfMatchesFloat64: Hit(ChanceOf(p)) is the draw Float64() < p
// on the same stream, for probabilities at and beyond both ends of
// [0, 1], at the two 53-bit draws around the threshold (the last that
// hits and the first that misses), and over a long seeded stream.
func TestChanceOfMatchesFloat64(t *testing.T) {
	ps := []float64{0, 0x1p-60, 0.3, 0.85, 0.95, 1, 1.5, -0.1, math.NaN(), math.Inf(1)}
	for _, p := range ps {
		c := ChanceOf(p)
		if c > 1<<53 {
			t.Errorf("ChanceOf(%v) = %d, above 2⁵³", p, c)
		}
		agree := func(what string, a, b *Source) {
			t.Helper()
			if hit, below := a.Hit(c), b.Float64() < p; hit != below {
				t.Fatalf("p=%v, %s: Hit %v, Float64() < p %v", p, what, hit, below)
			}
		}
		// The discarded low 11 bits are all ones: they must not count.
		for _, k := range []uint64{uint64(c) - 1, uint64(c)} {
			if k < 1<<53 {
				v := k<<11 | 0x7ff
				if yielding(v).Uint64() != v {
					t.Fatalf("yielding(%#x) does not yield it", v)
				}
				agree(fmt.Sprintf("k=%d", k), yielding(v), yielding(v))
			}
		}
		a, b := New(2026), New(2026)
		for i := 0; i < 200_000; i++ {
			agree(fmt.Sprintf("draw %d", i), a, b)
		}
	}
	if ChanceOf(math.NaN()) != 0 || ChanceOf(-0.1) != 0 || ChanceOf(1.5) != 1<<53 || ChanceOf(math.Inf(1)) != 1<<53 {
		t.Error("ChanceOf does not clamp to [0, 2⁵³] with NaN at 0")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(5)
	a := parent.Split()
	b := parent.Split()
	if a.Uint64() == b.Uint64() {
		t.Error("sibling splits produced identical first draws")
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	s := New(21)
	z := NewZipfTable(1000, 0.9).Sampler(s)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		r := z.Next()
		if r < 0 || r >= 1000 {
			t.Fatalf("Zipf rank %d out of range", r)
		}
		counts[r]++
	}
	// Rank 0 must be the most popular, and dramatically more popular
	// than the median rank.
	if counts[0] < counts[500]*10 {
		t.Errorf("Zipf skew too weak: rank0=%d rank500=%d", counts[0], counts[500])
	}
}

func TestZipfLargeN(t *testing.T) {
	s := New(23)
	n := zipfTabulateLimit * 4
	z := NewZipfTable(n, 1.0).Sampler(s)
	if z.t.cdf != nil || z.t.guide != nil {
		t.Fatal("large-n Zipf should not tabulate")
	}
	low := 0
	for i := 0; i < 10000; i++ {
		r := z.Next()
		if r < 0 || r >= n {
			t.Fatalf("Zipf rank %d out of range [0,%d)", r, n)
		}
		if r < n/100 {
			low++
		}
	}
	// With theta=1 the first 1% of ranks should draw far more than 1%
	// of the samples.
	if low < 2000 {
		t.Errorf("large-n Zipf skew too weak: %d/10000 in first 1%%", low)
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipfTable(0, _) did not panic")
		}
	}()
	NewZipfTable(0, 1).Sampler(New(1))
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Intn(1000)
	}
}
