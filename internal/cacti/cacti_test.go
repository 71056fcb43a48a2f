package cacti

import (
	"testing"
	"testing/quick"
)

func TestCyclesRoundsUp(t *testing.T) {
	cases := []struct {
		ps   float64
		want int
	}{
		{0, 1}, {1, 1}, {200, 1}, {200.1, 2}, {400, 2}, {6400, 32},
	}
	for _, c := range cases {
		if got := ToCycles(Picoseconds(c.ps)); int64(got) != int64(c.want) {
			t.Errorf("ToCycles(%v) = %d, want %d", c.ps, got, c.want)
		}
	}
}

func TestTagArrayMonotonicInSize(t *testing.T) {
	prev := Picoseconds(0)
	for kb := 1.0; kb <= 1024; kb *= 2 {
		ps := TagArrayPS(kb, 8)
		if ps <= prev {
			t.Fatalf("TagArrayPS not increasing at %v KB", kb)
		}
		prev = ps
	}
}

func TestTagArrayMonotonicInAssoc(t *testing.T) {
	prev := Picoseconds(0)
	for a := 1; a <= 64; a *= 2 {
		ps := TagArrayPS(128, a)
		if ps <= prev && a > 1 {
			t.Fatalf("TagArrayPS not increasing at assoc %d", a)
		}
		prev = ps
	}
}

func TestDataBankMonotonic(t *testing.T) {
	if DataBankPS(2048, 8) <= DataBankPS(1024, 8) {
		t.Error("DataBankPS not increasing in size")
	}
	if DataBankPS(2048, 16) <= DataBankPS(2048, 8) {
		t.Error("DataBankPS not increasing in assoc")
	}
}

func TestWireLinear(t *testing.T) {
	if WirePS(2) != 2*WirePS(1) {
		t.Error("WirePS not linear")
	}
	if WirePS(0) != 0 {
		t.Error("WirePS(0) != 0")
	}
}

func TestTagGeometryPrivate2MB(t *testing.T) {
	// Paper Table 1: private 2 MB 8-way tag = 4 cycles.
	g := TagGeometry{CacheBytes: 2 << 20, BlockBytes: 128, Assoc: 8}
	if got := g.Sets(); got != 2048 {
		t.Errorf("Sets = %d, want 2048", got)
	}
	if got := g.Entries(); got != 16384 {
		t.Errorf("Entries = %d, want 16384", got)
	}
	if got := TagCycles(g, 0); got != 4 {
		t.Errorf("private tag = %d cycles, want 4 (Table 1)", got)
	}
}

func TestTagGeometryNuRAPID(t *testing.T) {
	// Paper Table 1: CMP-NuRAPID tag with doubled entry count and
	// forward pointers = 5 cycles.
	g := TagGeometry{
		CacheBytes: 2 << 20, BlockBytes: 128, Assoc: 8,
		SetFactor: 2, Pointers: true,
	}
	if got := g.Sets(); got != 4096 {
		t.Errorf("Sets = %d, want 4096", got)
	}
	if got := TagCycles(g, 0); got != 5 {
		t.Errorf("NuRAPID tag = %d cycles, want 5 (Table 1)", got)
	}
}

func TestTagGeometrySharedCentral(t *testing.T) {
	// Paper Table 1: shared 8 MB 32-way central tag = 26 cycles
	// including the wire delay to reach the chip centre.
	g := TagGeometry{CacheBytes: 8 << 20, BlockBytes: 128, Assoc: 32}
	if got := TagCycles(g, 9.5); got != 26 {
		t.Errorf("shared central tag = %d cycles, want 26 (Table 1)", got)
	}
}

func TestDataBankTable1(t *testing.T) {
	// Paper Table 1 d-group data latencies from P0: 6, 20, 20, 33.
	cases := []struct {
		mm   Millimeters
		want int
	}{
		{0, 6}, {7, 20}, {13.5, 33},
	}
	for _, c := range cases {
		if got := DataBankCycles(2<<20, 8, c.mm); int64(got) != int64(c.want) {
			t.Errorf("DataBankCycles(2MB, 8, %vmm) = %d, want %d", c.mm, got, c.want)
		}
	}
}

func TestBusTable1(t *testing.T) {
	if got := BusCycles(16); got != 32 {
		t.Errorf("bus = %d cycles, want 32 (Table 1)", got)
	}
}

func TestL1Latency(t *testing.T) {
	// Paper §4.1: 64 KB 2-way L1 with 64 B blocks has 3-cycle latency.
	if got := ParallelCacheCycles(64<<10, 64, 2); got != 3 {
		t.Errorf("L1 = %d cycles, want 3", got)
	}
}

func TestEntryBitsPointerOverhead(t *testing.T) {
	plain := TagGeometry{CacheBytes: 2 << 20, BlockBytes: 128, Assoc: 8}
	ptr := plain
	ptr.Pointers = true
	if ptr.EntryBits() != plain.EntryBits()+PointerBits {
		t.Errorf("pointer entry overhead: %d vs %d+%d",
			ptr.EntryBits(), plain.EntryBits(), PointerBits)
	}
}

func TestPointerCapacityOverheadMatchesPaper(t *testing.T) {
	// [8]/§2.1: in an 8 MB cache with 128 B blocks, 16-bit forward and
	// reverse pointers constitute a 256 KB (3%) overhead.
	frames := (8 << 20) / 128
	overheadBytes := frames * 2 * PointerBits / 8
	if overheadBytes != 256<<10 {
		t.Errorf("pointer overhead = %d bytes, want 256 KB", overheadBytes)
	}
}

func TestLog2i(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 2048: 11, 4096: 12}
	for n, want := range cases {
		if got := log2i(n); got != want {
			t.Errorf("log2i(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestToCyclesCeilingProperty(t *testing.T) {
	// Property: ToCycles is the ceiling of ps/CyclePS with a one-cycle
	// floor — never truncation. Every conversion site in the simulator
	// must round the same direction, so the direction is pinned here.
	f := func(raw uint32) bool {
		ps := Picoseconds(float64(raw) / 16) // cover fractional cycles
		c := ToCycles(ps)
		exact := float64(ps / CyclePS)
		if c < 1 {
			return false
		}
		if float64(c) < exact {
			return false // rounded down: not a ceiling
		}
		return c == 1 || float64(c-1) < exact // tight: not over-rounded
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccessCyclesMonotonicInGeometry(t *testing.T) {
	// Growing a tag array (capacity or associativity) must never make
	// it faster.
	base := TagGeometry{CacheBytes: 1 << 20, BlockBytes: 128, Assoc: 8}
	bigger := base
	bigger.CacheBytes = 4 << 20
	wider := base
	wider.Assoc = 32
	if TagCycles(base, 0) > TagCycles(bigger, 0) {
		t.Errorf("4 MB tag (%d cycles) faster than 1 MB (%d cycles)",
			TagCycles(bigger, 0), TagCycles(base, 0))
	}
	if TagCycles(base, 0) > TagCycles(wider, 0) {
		t.Errorf("32-way tag (%d cycles) faster than 8-way (%d cycles)",
			TagCycles(wider, 0), TagCycles(base, 0))
	}
}

func TestCyclesProperty(t *testing.T) {
	// Property: ToCycles is monotone and always >= 1.
	f := func(a, b uint16) bool {
		x, y := Picoseconds(a), Picoseconds(b)
		if x > y {
			x, y = y, x
		}
		return ToCycles(x) >= 1 && ToCycles(x) <= ToCycles(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
