package workload

import (
	"testing"

	"cmpnurapid/internal/topo"
)

// Each benchmark below times one loop body built by a setup function,
// and TestBenchAllocs counts the same bodies.
func runBench(b *testing.B, setup func() func(i int)) {
	b.ReportAllocs()
	op := setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

func generatorNext() func(int) {
	g := New(OLTP(1))
	return func(i int) { g.Next(i % 4) }
}

func mixNext() func(int) {
	m := Mixes(1)[2]
	// The first draw on each core builds its Zipf table; time only
	// steady-state draws.
	for c := 0; c < topo.NumCores; c++ {
		m.Next(c)
	}
	return func(i int) { m.Next(i % 4) }
}

// genSink keeps BenchmarkNewGenerator's result live.
var genSink *Generator

func newGenerator() func(int) {
	return func(int) { genSink = New(OLTP(1)) }
}

func BenchmarkGeneratorNext(b *testing.B) { runBench(b, generatorNext) }
func BenchmarkMixNext(b *testing.B)       { runBench(b, mixNext) }
func BenchmarkNewGenerator(b *testing.B)  { runBench(b, newGenerator) }

// TestBenchAllocs pins each benchmark's allocations per op. Draws
// allocate nothing. Building a Table 3 generator allocates 33 times:
// the generator, five rng sources per core, and its four distinct Zipf
// tables at three allocations each (table, CDF, guide). Any other count is a change to the allocation
// profile, an improvement included; update the pin in the commit that
// explains it.
func TestBenchAllocs(t *testing.T) {
	for _, bench := range []struct {
		name   string
		setup  func() func(int)
		runs   int
		allocs float64
	}{
		{"GeneratorNext", generatorNext, 10_000, 0},
		{"MixNext", mixNext, 10_000, 0},
		{"NewGenerator", newGenerator, 10, 33},
	} {
		op := bench.setup()
		i := 0
		if avg := testing.AllocsPerRun(bench.runs, func() { op(i); i++ }); avg != bench.allocs {
			t.Errorf("%s allocates %.0f times per op, want %.0f", bench.name, avg, bench.allocs)
		}
	}
}
