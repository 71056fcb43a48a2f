package core

import (
	"testing"

	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/rng"
)

// Micro-benchmarks for the CMP-NuRAPID access paths; these bound the
// simulator's throughput and catch accidental algorithmic regressions
// (the demotion chain and snoop paths are the hot spots).

func benchCache() *Cache {
	return New(DefaultConfig())
}

// The four access benchmarks below share runAccessBench: each one's
// setup builds and primes a cache and returns one iteration's body,
// and TestAccessBenchesDoNotAllocate counts those same bodies.
var accessBenches = []struct {
	name  string
	setup func() func(i int)
}{
	{"HitClosest", hitClosest},
	{"HitCommunication", hitCommunication},
	{"MissCapacity", missCapacity},
	{"MixedWorkload", mixedWorkload},
}

func runAccessBench(b *testing.B, setup func() func(int)) {
	b.ReportAllocs()
	op := setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

func hitClosest() func(int) {
	c := benchCache()
	addr := memsys.Addr(0x1000)
	c.Access(0, 0, addr, false)
	now := memsys.Cycle(100)
	return func(int) {
		c.Access(now, 0, addr, false)
		now += 10
	}
}

func hitCommunication() func(int) {
	c := benchCache()
	addr := memsys.Addr(0x2000)
	c.Access(0, 0, addr, true)
	c.Access(50, 1, addr, false) // C group
	now := memsys.Cycle(100)
	return func(i int) {
		c.Access(now, i%2, addr, i%2 == 0)
		now += 10
	}
}

func missCapacity() func(int) {
	c := benchCache()
	now := memsys.Cycle(0)
	return func(i int) {
		// A fresh block every time: always a capacity miss with the
		// full placement path (tag victim, demotion chain once full).
		c.Access(now, i%4, memsys.Addr(i*128), false)
		now += 10
	}
}

func mixedWorkload() func(int) {
	c := benchCache()
	r := rng.New(1)
	now := memsys.Cycle(0)
	return func(int) {
		core := r.Intn(4)
		var addr memsys.Addr
		switch r.Intn(3) {
		case 0:
			addr = memsys.Addr(0x100000*(core+1) + r.Intn(4096)*128)
		case 1:
			addr = memsys.Addr(0x800000 + r.Intn(1024)*128)
		default:
			addr = memsys.Addr(0x900000 + r.Intn(256)*128)
		}
		c.Access(now, core, addr, r.Bool(0.3))
		now += 10
	}
}

func BenchmarkHitClosest(b *testing.B)       { runAccessBench(b, hitClosest) }
func BenchmarkHitCommunication(b *testing.B) { runAccessBench(b, hitCommunication) }
func BenchmarkMissCapacity(b *testing.B)     { runAccessBench(b, missCapacity) }
func BenchmarkMixedWorkload(b *testing.B)    { runAccessBench(b, mixedWorkload) }

// TestAccessBenchesDoNotAllocate holds every access benchmark's loop
// body at zero heap allocations: hits, communication, the capacity
// miss path with its demotion chain, and the mixed stream.
func TestAccessBenchesDoNotAllocate(t *testing.T) {
	for _, bench := range accessBenches {
		op := bench.setup()
		i := 0
		if avg := testing.AllocsPerRun(10_000, func() { op(i); i++ }); avg != 0 {
			t.Errorf("%s allocates %.0f times per access, want 0", bench.name, avg)
		}
	}
}

func BenchmarkCheckInvariants(b *testing.B) {
	b.ReportAllocs()
	c := benchCache()
	r := rng.New(2)
	now := memsys.Cycle(0)
	for i := 0; i < 50000; i++ {
		c.Access(now, r.Intn(4), memsys.Addr(r.Intn(1<<20))*128, r.Bool(0.3))
		now += 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.CheckInvariants()
	}
}
