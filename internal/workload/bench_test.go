package workload

import (
	"testing"

	"cmpnurapid/internal/topo"
)

func BenchmarkGeneratorNext(b *testing.B) {
	b.ReportAllocs()
	g := New(OLTP(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(i % 4)
	}
}

func BenchmarkMixNext(b *testing.B) {
	b.ReportAllocs()
	m := Mixes(1)[2]
	// The first draw on each core builds its Zipf table; time only
	// steady-state draws.
	for c := 0; c < topo.NumCores; c++ {
		m.Next(c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Next(i % 4)
	}
}

// genSink keeps BenchmarkNewGenerator's result live.
var genSink *Generator

func BenchmarkNewGenerator(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		genSink = New(OLTP(1))
	}
}
