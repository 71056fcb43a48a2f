package core

import (
	"runtime"
	"testing"
	"unsafe"

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
		c.Access(now, core, addr, r.Hit(rng.ChanceOf(0.3)))
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

// newSink keeps each benchmarked cache reachable until the next.
var newSink *Cache

func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		newSink = New(DefaultConfig())
	}
}

// TestNewBytes pins the heap bytes one New(DefaultConfig()) allocates,
// the state every CMP-NuRAPID cell carries: four 32,768-line tag
// arrays at 32 B a line (4 MiB), four 16,384-frame d-groups at 16 B a
// frame (1 MiB) and their int32 free lists (256 KiB). Each run is one
// call, and the fewest bytes of three runs counts, so a runtime
// background allocation during one run cannot fail the pin. Any other
// figure is a change to the per-cell footprint, an improvement
// included; update the pin in the commit that explains it.
func TestNewBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const want = 5_506_744
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		newSink = New(DefaultConfig())
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	newSink = nil
	if best != want {
		t.Errorf("New(DefaultConfig()) allocates %d B, want %d", best, want)
	}
}

// TestLayoutSizes pins the per-line and per-frame sizes New's bytes
// are made of, on 64-bit hosts. The bound behind each narrowed field
// is on its declaration.
func TestLayoutSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"tagLine", unsafe.Sizeof(tagLine{}), 32},
		{"frameInfo", unsafe.Sizeof(frameInfo{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d B, want %d", c.name, c.got, c.want)
		}
	}
}

func BenchmarkCheckInvariants(b *testing.B) {
	b.ReportAllocs()
	c := benchCache()
	r := rng.New(2)
	now := memsys.Cycle(0)
	for i := 0; i < 50000; i++ {
		c.Access(now, r.Intn(4), memsys.Addr(r.Intn(1<<20))*128, r.Hit(rng.ChanceOf(0.3)))
		now += 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.CheckInvariants()
	}
}
