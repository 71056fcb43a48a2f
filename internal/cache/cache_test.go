package cache

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"cmpnurapid/internal/memsys"
)

func smallArray() *Array[int] {
	return NewArray[int](Geometry{Sets: 4, Ways: 2, BlockBytes: 64})
}

func TestGeometryFor(t *testing.T) {
	g := GeometryFor(2<<20, 8, 128)
	if g.Sets != 2048 || g.Ways != 8 || g.BlockBytes != 128 {
		t.Errorf("GeometryFor = %+v", g)
	}
	if g.CapacityBytes() != 2<<20 {
		t.Errorf("CapacityBytes = %d, want 2 MB", g.CapacityBytes())
	}
}

func TestGeometryValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two sets did not panic")
		}
	}()
	NewArray[int](Geometry{Sets: 3, Ways: 2, BlockBytes: 64})
}

// TestValidateArrayRejectsUnallocatable: a line count that
// overflows int, or that no make could allocate at the payload's line
// size, is refused with a message naming that cause, not a runtime
// makeslice panic or an array whose wrapped count is 0.
func TestValidateArrayRejectsUnallocatable(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the allocation limit and line sizes are those of 64-bit hosts")
	}
	for _, c := range []struct {
		geo  Geometry
		want string
	}{
		{Geometry{Sets: 1 << 40, Ways: 1 << 20, BlockBytes: 64}, "of 24-byte lines exceed the 11728124029610 lines an array can allocate"},
		{Geometry{Sets: 1 << 40, Ways: 16, BlockBytes: 64}, "of 24-byte lines exceed the 11728124029610 lines an array can allocate"},
		{Geometry{Sets: 1 << 40, Ways: 1 << 30, BlockBytes: 64}, "overflow an int line count"},
		{Geometry{Sets: 1 << 62, Ways: 4, BlockBytes: 64}, "overflow an int line count"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "cache: ") || !strings.Contains(msg, c.want) {
					t.Errorf("%d sets × %d ways: NewArray panicked with %q, want %q", c.geo.Sets, c.geo.Ways, msg, c.want)
				}
			}()
			NewArray[int](c.geo)
		}()
	}
	// The bound follows the line size: 2^44 lines of 16 bytes are
	// exactly the 2^48 bytes make accepts.
	ValidateArray[uint8](Geometry{Sets: 1 << 40, Ways: 16, BlockBytes: 64})
}

func TestProbeMissThenHit(t *testing.T) {
	a := smallArray()
	addr := memsys.Addr(0x1000)
	if a.Probe(addr) != nil {
		t.Fatal("probe of empty cache hit")
	}
	v := a.Victim(addr)
	a.Install(v, addr, 42)
	l := a.Probe(addr)
	if l == nil {
		t.Fatal("probe after install missed")
	}
	if l.Data != 42 {
		t.Errorf("payload = %d, want 42", l.Data)
	}
}

func TestSetIndexAndConflict(t *testing.T) {
	a := smallArray()
	// 4 sets, 64 B blocks: addresses 64*4 apart map to the same set.
	a0 := memsys.Addr(0)
	a1 := memsys.Addr(64 * 4)
	a2 := memsys.Addr(64 * 8)
	if a.SetIndex(a0) != a.SetIndex(a1) || a.SetIndex(a1) != a.SetIndex(a2) {
		t.Fatal("stride-4-blocks addresses should conflict in a 4-set cache")
	}
	if a.SetIndex(a0) == a.SetIndex(memsys.Addr(64)) {
		t.Fatal("adjacent blocks should map to different sets")
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	a := smallArray()
	addr := memsys.Addr(0)
	a.Install(a.Victim(addr), addr, 1)
	v := a.Victim(memsys.Addr(64 * 4)) // same set, one way still free
	if v.Valid {
		t.Error("victim should be the invalid way while one remains")
	}
}

func TestVictimLRU(t *testing.T) {
	a := smallArray()
	a0, a1, a2 := memsys.Addr(0), memsys.Addr(64*4), memsys.Addr(64*8)
	a.Install(a.Victim(a0), a0, 0)
	a.Install(a.Victim(a1), a1, 1)
	// Touch a0 so a1 becomes LRU.
	a.Touch(a.Probe(a0))
	v := a.Victim(a2)
	if !v.Valid || a.AddrOf(v) != a1 {
		t.Errorf("LRU victim = %v (addr %#x), want block %#x", v.Valid, a.AddrOf(v), a1)
	}
}

func TestProbeDoesNotPerturbLRU(t *testing.T) {
	a := smallArray()
	a0, a1, a2 := memsys.Addr(0), memsys.Addr(64*4), memsys.Addr(64*8)
	a.Install(a.Victim(a0), a0, 0)
	a.Install(a.Victim(a1), a1, 1)
	// A bare Probe of a0 (like a snoop) must not rescue it from LRU.
	a.Probe(a0)
	v := a.Victim(a2)
	if a.AddrOf(v) != a0 {
		t.Errorf("probe changed LRU order: victim %#x, want %#x", a.AddrOf(v), a0)
	}
}

func TestInvalidate(t *testing.T) {
	a := smallArray()
	addr := memsys.Addr(0x40)
	a.Install(a.Victim(addr), addr, 7)
	a.Invalidate(a.Probe(addr))
	if a.Probe(addr) != nil {
		t.Error("probe after invalidate hit")
	}
	if a.CountValid() != 0 {
		t.Errorf("CountValid = %d, want 0", a.CountValid())
	}
}

func TestAddrOfRoundTrip(t *testing.T) {
	a := NewArray[struct{}](Geometry{Sets: 64, Ways: 4, BlockBytes: 128})
	f := func(raw uint64) bool {
		addr := memsys.Addr(raw).BlockAddr(128)
		l := a.Victim(addr)
		a.Install(l, addr, struct{}{})
		return a.AddrOf(l) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestVictimPreferring: an invalid way wins outright; among valid
// lines the LRU line prefer accepts beats a less recently used line it
// rejects; when prefer accepts none, the LRU line overall is the
// victim.
func TestVictimPreferring(t *testing.T) {
	a := NewArray[int](Geometry{Sets: 1, Ways: 3, BlockBytes: 64})
	odd := func(v *int) bool { return *v%2 == 1 }
	a0, a1, a2 := memsys.Addr(0), memsys.Addr(64), memsys.Addr(128)
	a.Install(a.Victim(a0), a0, 0)
	a.Install(a.Victim(a1), a1, 1)
	if v := a.VictimPreferring(a2, odd); v.Valid {
		t.Fatalf("victim is valid block %#x, want the invalid way", a.AddrOf(v))
	}
	a.Install(a.Victim(a2), a2, 3) // LRU order: a0 (even), a1 (odd), a2 (odd)
	if v := a.VictimPreferring(a0, odd); a.AddrOf(v) != a1 {
		t.Errorf("victim = %#x, want the LRU odd line %#x", a.AddrOf(v), a1)
	}
	a.Touch(a.Probe(a1)) // LRU order: a0 (even), a2 (odd), a1 (odd)
	a.Probe(a2).Data = 2 // now only a1 is odd, and it is MRU
	if v := a.VictimPreferring(a0, odd); a.AddrOf(v) != a1 {
		t.Errorf("victim = %#x, want the only odd line %#x though it is MRU", a.AddrOf(v), a1)
	}
	never := func(*int) bool { return false }
	if v := a.VictimPreferring(a0, never); a.AddrOf(v) != a0 {
		t.Errorf("victim = %#x, want the overall LRU line %#x when prefer accepts none", a.AddrOf(v), a0)
	}
}

func TestForEach(t *testing.T) {
	a := smallArray()
	addrs := []memsys.Addr{0, 64, 128, 64 * 4}
	for i, ad := range addrs {
		a.Install(a.Victim(ad), ad, i)
	}
	seen := map[memsys.Addr]bool{}
	a.ForEach(func(set int, l *Line[int]) {
		seen[a.AddrOf(l)] = true
		if a.SetIndex(a.AddrOf(l)) != set {
			t.Errorf("ForEach set %d inconsistent with address %#x", set, a.AddrOf(l))
		}
	})
	if len(seen) != len(addrs) {
		t.Errorf("ForEach visited %d lines, want %d", len(seen), len(addrs))
	}
}

func TestFullSetEvictionCycle(t *testing.T) {
	// Property: in a 2-way set, after installing 3 conflicting blocks
	// the first is gone and the last two remain.
	a := smallArray()
	blocks := []memsys.Addr{0, 64 * 4, 64 * 8}
	for i, b := range blocks {
		v := a.Victim(b)
		a.Install(v, b, i)
	}
	if a.Probe(blocks[0]) != nil {
		t.Error("oldest block survived full-set eviction")
	}
	if a.Probe(blocks[1]) == nil || a.Probe(blocks[2]) == nil {
		t.Error("recent blocks evicted unexpectedly")
	}
}

func TestCapacityInvariant(t *testing.T) {
	// Property: valid-line count never exceeds sets*ways regardless of
	// the install sequence.
	a := NewArray[int](Geometry{Sets: 2, Ways: 2, BlockBytes: 64})
	f := func(raws []uint32) bool {
		for _, r := range raws {
			ad := memsys.Addr(r).BlockAddr(64)
			if a.Probe(ad) == nil {
				a.Install(a.Victim(ad), ad, 0)
			}
		}
		return a.CountValid() <= 4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeometryForMinimumOneSet(t *testing.T) {
	// Capacity smaller than one way-set still yields an indexable
	// geometry: sets is clamped to 1, never 0.
	g := GeometryFor(64, 2, 64)
	if g.Sets != 1 {
		t.Errorf("GeometryFor(64 B, 2 ways, 64 B blocks).Sets = %d, want 1", g.Sets)
	}
}

func TestVictimPrefersStaleInvalidatedLine(t *testing.T) {
	// Invalidate keeps the line's old lastUse, so an invalidated line
	// can look "more recently used" than a valid one. Victim must
	// still hand back the invalid line, not the valid LRU.
	a := smallArray()
	a0, a1 := memsys.Addr(0), memsys.Addr(64*4)
	a.Install(a.Victim(a0), a0, 0)
	a.Install(a.Victim(a1), a1, 1) // a1 is MRU
	a.Invalidate(a.Probe(a1))
	if v := a.Victim(memsys.Addr(64 * 8)); v.Valid {
		t.Errorf("victim is valid block %#x, want the invalidated way", a.AddrOf(v))
	}
}

// TestManyWaysSet: nothing bounds associativity but memory. A 128-way
// set builds, finds each of its 128 blocks, and evicts the least
// recently used one.
func TestManyWaysSet(t *testing.T) {
	const ways = 128
	a := NewArray[int](Geometry{Sets: 1, Ways: ways, BlockBytes: 64})
	for i := 0; i < ways; i++ {
		ad := memsys.Addr(i * 64)
		a.Install(a.Victim(ad), ad, i)
	}
	for i := 0; i < ways; i++ {
		if l := a.Probe(memsys.Addr(i * 64)); l == nil || l.Data != i {
			t.Fatalf("probe of way %d's block missed or read the wrong payload", i)
		}
	}
	// Touch every block but block 70, oldest first: 70 becomes LRU.
	for i := 0; i < ways; i++ {
		if i != 70 {
			a.Touch(a.Probe(memsys.Addr(i * 64)))
		}
	}
	if v := a.Victim(memsys.Addr(ways * 64)); !v.Valid || a.AddrOf(v) != 70*64 {
		t.Errorf("victim = %#x, want the LRU block %#x", a.AddrOf(v), 70*64)
	}
}

// TestClockWrapKeepsVictimOrder runs one install/touch/invalidate
// sequence on two arrays. Once both sets hold several lines, the
// second array's clock is driven to 2^32-2, so it wraps two touches
// later. After every step both must pick the same Victim and
// VictimPreferring line in every set.
func TestClockWrapKeepsVictimOrder(t *testing.T) {
	geo := Geometry{Sets: 2, Ways: 4, BlockBytes: 64}
	ref, wrap := NewArray[int](geo), NewArray[int](geo)
	odd := func(v *int) bool { return *v%2 == 1 }
	// blk(set, i) is the i-th distinct block of set.
	blk := func(set, i int) memsys.Addr { return memsys.Addr((2*i + set) * 64) }
	type op struct {
		set, i int
		kind   byte // 'i' install or touch, 'x' invalidate
	}
	ops := []op{
		{0, 0, 'i'}, {0, 1, 'i'}, {1, 0, 'i'}, {0, 2, 'i'}, {0, 3, 'i'},
		{1, 1, 'i'}, {0, 1, 'i'}, {0, 4, 'i'}, {1, 2, 'i'}, {0, 0, 'i'},
		{0, 2, 'x'}, {1, 0, 'i'}, {0, 5, 'i'}, {0, 3, 'i'}, {1, 3, 'i'},
		{1, 4, 'i'}, {0, 1, 'i'}, {0, 6, 'i'},
	}
	for step, o := range ops {
		if step == 6 { // set 0 is full, set 1 holds two lines
			wrap.clock = math.MaxUint32 - 1
		}
		for _, a := range []*Array[int]{ref, wrap} {
			ad := blk(o.set, o.i)
			l := a.Probe(ad)
			switch {
			case o.kind == 'x':
				if l != nil {
					a.Invalidate(l)
				}
			case l != nil:
				a.Touch(l)
			default:
				a.Install(a.Victim(ad), ad, o.i)
			}
		}
		for set := 0; set < geo.Sets; set++ {
			probe := blk(set, 50)
			if r, w := ref.AddrOf(ref.Victim(probe)), wrap.AddrOf(wrap.Victim(probe)); r != w {
				t.Fatalf("step %d set %d: Victim %#x after the wrap, %#x without", step, set, w, r)
			}
			r := ref.AddrOf(ref.VictimPreferring(probe, odd))
			if w := wrap.AddrOf(wrap.VictimPreferring(probe, odd)); r != w {
				t.Fatalf("step %d set %d: VictimPreferring %#x after the wrap, %#x without", step, set, w, r)
			}
		}
	}
	if wrap.clock >= math.MaxUint32-1 {
		t.Fatalf("clock = %d: the sequence never wrapped it", wrap.clock)
	}
}

// TestProbeTellsApartHighTagBits: two blocks in one set that differ
// only in address bit 45 are two blocks, so the tag keeps every bit
// above the block offset.
func TestProbeTellsApartHighTagBits(t *testing.T) {
	a := smallArray()
	lo := memsys.Addr(0x1000)
	hi := lo | 1<<45
	if a.SetIndex(lo) != a.SetIndex(hi) {
		t.Fatal("the two blocks should share a set")
	}
	a.Install(a.Victim(lo), lo, 1)
	if a.Probe(hi) != nil {
		t.Fatal("probe of the bit-45 twin hit the other block")
	}
	a.Install(a.Victim(hi), hi, 2)
	if l := a.Probe(lo); l == nil || l.Data != 1 {
		t.Error("low block lost or overwritten")
	}
	if l := a.Probe(hi); l == nil || l.Data != 2 || a.AddrOf(l) != hi {
		t.Error("high block missing or reconstructed without bit 45")
	}
}
