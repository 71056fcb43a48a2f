package l2

import (
	"testing"
	"unsafe"

	"cmpnurapid/internal/cache"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/rng"
	"cmpnurapid/internal/topo"
)

// The baseline designs' access benchmarks share runAccessBench: each
// one's setup builds a design and returns one iteration's body, and
// TestAccessBenchesDoNotAllocate counts those same bodies.
var accessBenches = []struct {
	name  string
	setup func() func(i int)
}{
	{"SharedAccess", sharedAccesses},
	{"SNUCAAccess", snucaAccesses},
	{"DNUCAAccess", dnucaAccesses},
	{"PrivateAccess", privateAccesses},
	{"PrivateUpdateAccess", privateUpdateAccesses},
}

func runAccessBench(b *testing.B, setup func() func(int)) {
	b.ReportAllocs()
	op := setup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

func sharedAccesses() func(int) { return uniformAccesses(NewUniformShared(topo.Derive())) }
func snucaAccesses() func(int)  { return uniformAccesses(NewSNUCA(Static, topo.Derive())) }
func dnucaAccesses() func(int)  { return uniformAccesses(NewSNUCA(Migrate, topo.Derive())) }

// uniformAccesses draws blocks uniformly from a 64K-block space.
func uniformAccesses(s memsys.L2) func(int) {
	r := rng.New(1)
	now := memsys.Cycle(0)
	return func(int) {
		s.Access(now, r.Intn(4), memsys.Addr(r.Intn(1<<16)*128), r.Hit(rng.ChanceOf(0.3)))
		now += 10
	}
}

func privateAccesses() func(int)       { return regionAccesses(NewPrivate(MESI, topo.Derive())) }
func privateUpdateAccesses() func(int) { return regionAccesses(NewPrivate(Update, topo.Derive())) }

// regionAccesses sends 70% of each core's accesses to its own region
// and the rest to a shared one.
func regionAccesses(p memsys.L2) func(int) {
	r := rng.New(1)
	now := memsys.Cycle(0)
	return func(int) {
		core := r.Intn(4)
		var addr memsys.Addr
		if r.Hit(rng.ChanceOf(0.7)) {
			addr = memsys.Addr(0x100000*(core+1) + r.Intn(8192)*128)
		} else {
			addr = memsys.Addr(0x800000 + r.Intn(1024)*128)
		}
		p.Access(now, core, addr, r.Hit(rng.ChanceOf(0.3)))
		now += 10
	}
}

func BenchmarkSharedAccess(b *testing.B)        { runAccessBench(b, sharedAccesses) }
func BenchmarkSNUCAAccess(b *testing.B)         { runAccessBench(b, snucaAccesses) }
func BenchmarkDNUCAAccess(b *testing.B)         { runAccessBench(b, dnucaAccesses) }
func BenchmarkPrivateAccess(b *testing.B)       { runAccessBench(b, privateAccesses) }
func BenchmarkPrivateUpdateAccess(b *testing.B) { runAccessBench(b, privateUpdateAccesses) }

// TestAccessBenchesDoNotAllocate holds every baseline design's
// benchmark loop body at zero heap allocations.
func TestAccessBenchesDoNotAllocate(t *testing.T) {
	for _, bench := range accessBenches {
		op := bench.setup()
		i := 0
		if avg := testing.AllocsPerRun(10_000, func() { op(i); i++ }); avg != 0 {
			t.Errorf("%s allocates %.0f times per access, want 0", bench.name, avg)
		}
	}
}

// TestLineSizes pins the line sizes of the baseline designs' arrays on
// 64-bit hosts: the 16-byte cache.Line header, which a payload of at
// most 3 one-byte fields shares. Both private-cache protocols use
// privPayload, so the private row covers the update design too.
func TestLineSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"shared", unsafe.Sizeof(cache.Line[sharedPayload]{}), 16},
		{"private", unsafe.Sizeof(cache.Line[privPayload]{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("%s line is %d B, want %d", c.name, c.got, c.want)
		}
	}
}
