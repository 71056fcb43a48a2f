package rng

import (
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

func TestBoolProbability(t *testing.T) {
	s := New(11)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %.4f, want 0.3±0.01", got)
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(13)
	const p, draws = 0.25, 50000
	sum := 0
	for i := 0; i < draws; i++ {
		sum += s.Geometric(p)
	}
	mean := float64(sum) / draws
	want := (1 - p) / p // mean of geometric counting failures
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("Geometric(%v) mean = %.3f, want ~%.3f", p, mean, want)
	}
}

func TestGeometricEdge(t *testing.T) {
	s := New(17)
	if got := s.Geometric(1); got != 0 {
		t.Errorf("Geometric(1) = %d, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	s.Geometric(0)
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
	z := NewZipf(s, 1000, 0.9)
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
	z := NewZipf(s, n, 1.0)
	if z.cdf != nil {
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
			t.Fatal("NewZipf(_, 0, _) did not panic")
		}
	}()
	NewZipf(New(1), 0, 1)
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
