package l2

import (
	"testing"

	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/coherence"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/rng"
	"cmpnurapid/internal/topo"
)

// Small configurations for direct inspection.

func smallShared() *Shared {
	return NewShared("uniform-shared", 16<<10, 4, 64, 59, 300)
}

func smallPrivate() *Private {
	return NewPrivateWith(4<<10, 4, 64, 10, bus.Config{Latency: 32, SlotCycles: 4}, 300)
}

func smallSNUCA() *SNUCA {
	var dist [topo.NumCores][topo.NumDGroups]memsys.Cycles
	for c := 0; c < topo.NumCores; c++ {
		for g := 0; g < topo.NumDGroups; g++ {
			dist[c][g] = memsys.CyclesOf(2 + 7*topo.Distance(c, g))
		}
	}
	return NewSNUCAWith(4<<10, 4, 64, dist, 24, 300)
}

func TestSharedHitAndCapacityOnly(t *testing.T) {
	s := smallShared()
	a := memsys.Addr(0x1000)
	r := s.Access(0, 0, a, false)
	if r.Category != memsys.CapacityMiss || r.Latency != 359 {
		t.Errorf("cold = %+v, want capacity miss at 359", r)
	}
	// A different core hits the same copy: shared caches never take
	// sharing misses.
	r = s.Access(10, 3, a, true)
	if r.Category != memsys.Hit || r.Latency != 59 {
		t.Errorf("other-core access = %+v, want hit at 59", r)
	}
	if s.Stats().Accesses.Count(memsys.LabelROS) != 0 ||
		s.Stats().Accesses.Count(memsys.LabelRWS) != 0 {
		t.Error("shared cache recorded sharing misses")
	}
}

func TestSharedEvictionInvalidatesAllL1s(t *testing.T) {
	s := NewShared("x", 1<<10, 1, 64, 10, 100) // 16 blocks direct-mapped
	dropped := map[int]bool{}
	s.SetL1Invalidate(func(core int, addr memsys.Addr) {
		if addr == 0 {
			dropped[core] = true
		}
	})
	s.Access(0, 0, 0, false)
	s.Access(10, 0, 1<<10, false) // conflicts with block 0
	for c := 0; c < topo.NumCores; c++ {
		if !dropped[c] {
			t.Errorf("core %d's L1 not invalidated on shared eviction", c)
		}
	}
}

func TestUniformSharedPaperLatency(t *testing.T) {
	s := NewUniformShared()
	s.Access(0, 0, 0x1000, false)
	r := s.Access(100, 1, 0x1000, false)
	if r.Latency != 59 {
		t.Errorf("uniform-shared hit = %d cycles, want 59 (Table 1)", r.Latency)
	}
}

func TestIdealPaperLatency(t *testing.T) {
	s := NewIdeal()
	s.Access(0, 0, 0x1000, false)
	r := s.Access(100, 1, 0x1000, false)
	if r.Latency != 10 {
		t.Errorf("ideal hit = %d cycles, want 10 (private latency)", r.Latency)
	}
}

func TestSNUCABankMapping(t *testing.T) {
	s := smallSNUCA()
	// Consecutive blocks interleave across the 4 banks.
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		seen[s.bankOf(memsys.Addr(i*64))] = true
	}
	if len(seen) != 4 {
		t.Errorf("4 consecutive blocks mapped to %d banks, want 4", len(seen))
	}
	// Same block always maps to the same bank.
	if s.bankOf(0x1040) != s.bankOf(0x1040) {
		t.Error("bank mapping not deterministic")
	}
}

func TestSNUCANonUniformLatency(t *testing.T) {
	s := smallSNUCA()
	// Warm one block per bank, then compare hit latencies from core 0.
	for i := 0; i < 4; i++ {
		s.Access(memsys.Cycle(i*1000), 0, memsys.Addr(i*64), false)
	}
	lats := map[int]memsys.Cycles{}
	for i := 0; i < 4; i++ {
		r := s.Access(memsys.Cycle(10000+i*1000), 0, memsys.Addr(i*64), false)
		if r.Category != memsys.Hit {
			t.Fatalf("block %d missed", i)
		}
		lats[r.DGroup] = r.Latency
	}
	close0 := topo.Closest(0)
	for b, l := range lats {
		if b == close0 {
			continue
		}
		if l <= lats[close0] {
			t.Errorf("bank %d latency %d not greater than closest bank's %d", b, l, lats[close0])
		}
	}
}

func TestSNUCANoReplication(t *testing.T) {
	s := smallSNUCA()
	a := memsys.Addr(0x40) // some bank
	s.Access(0, 0, a, false)
	s.Access(100, 1, a, false)
	s.Access(200, 2, a, false)
	// Still exactly one copy: exactly one bank holds the (bank-folded)
	// address.
	copies := 0
	for _, b := range s.banks {
		if b.Probe(s.innerAddr(a)) != nil {
			copies++
		}
	}
	if copies != 1 {
		t.Errorf("%d copies in SNUCA, want 1 (no replication)", copies)
	}
}

func TestSNUCAInnerOuterRoundTrip(t *testing.T) {
	s := smallSNUCA()
	for _, raw := range []memsys.Addr{0, 64, 128, 0x1040, 0xffc0, 0x12345 &^ 63} {
		b := s.bankOf(raw)
		if got := s.outerAddr(s.innerAddr(raw), b); got != raw.BlockAddr(64) {
			t.Errorf("round trip of %#x via bank %d = %#x", raw, b, got)
		}
	}
}

func TestSNUCABankFoldingUsesFullSets(t *testing.T) {
	// Blocks mapping to one bank must spread across all of its sets,
	// not just every fourth one (the aliasing bug this guards against
	// quadruples the conflict-miss rate).
	s := smallSNUCA()
	bank := s.banks[0]
	sets := map[int]bool{}
	for i := 0; i < 64; i++ {
		a := memsys.Addr(i * 64)
		if s.bankOf(a) != 0 {
			continue
		}
		sets[bank.SetIndex(s.innerAddr(a))] = true
	}
	if len(sets) < 8 {
		t.Errorf("bank 0 blocks cover only %d sets; bank bits alias into the index", len(sets))
	}
}

func TestPrivateHitLatency(t *testing.T) {
	p := smallPrivate()
	p.Access(0, 0, 0x1000, false)
	r := p.Access(1000, 0, 0x1000, false)
	if r.Category != memsys.Hit || r.Latency != 10 {
		t.Errorf("private hit = %+v, want 10-cycle hit", r)
	}
}

func TestPrivateMissClassification(t *testing.T) {
	p := smallPrivate()
	A, B := memsys.Addr(0x1000), memsys.Addr(0x2000)
	if r := p.Access(0, 0, A, false); r.Category != memsys.CapacityMiss {
		t.Errorf("cold: %v", r.Category)
	}
	if r := p.Access(100, 1, A, false); r.Category != memsys.ROSMiss {
		t.Errorf("clean elsewhere: %v, want ROS", r.Category)
	}
	p.Access(200, 2, B, true)
	if r := p.Access(300, 3, B, false); r.Category != memsys.RWSMiss {
		t.Errorf("dirty elsewhere: %v, want RWS", r.Category)
	}
	p.CheckInvariants()
}

func TestPrivateReplicationMakesCopies(t *testing.T) {
	p := smallPrivate()
	a := memsys.Addr(0x1000)
	for c := 0; c < 4; c++ {
		p.Access(memsys.Cycle(c*100), c, a, false)
	}
	copies := 0
	for c := 0; c < 4; c++ {
		if p.StateOf(c, a) == coherence.Shared {
			copies++
		}
	}
	if copies != 4 {
		t.Errorf("%d shared copies, want 4 (uncontrolled replication)", copies)
	}
	// Only the cold miss goes to memory: each later reader is served
	// cache-to-cache, by a Shared copy once no holder is in E.
	if got := p.Stats().OffChipMisses; got != 1 {
		t.Errorf("%d off-chip misses, want 1 (on-chip copies supply the rest)", got)
	}
}

func TestPrivateWriteInvalidatesSharers(t *testing.T) {
	p := smallPrivate()
	a := memsys.Addr(0x1000)
	p.Access(0, 0, a, false)
	p.Access(100, 1, a, false)
	// Core 0 writes: S→M upgrade, core 1 invalidated.
	r := p.Access(200, 0, a, true)
	if r.Category != memsys.Hit {
		t.Fatalf("upgrade: %v, want hit", r.Category)
	}
	if p.StateOf(0, a) != coherence.Modified {
		t.Errorf("writer: %v, want M", p.StateOf(0, a))
	}
	if p.StateOf(1, a) != coherence.Invalid {
		t.Errorf("sharer: %v, want I", p.StateOf(1, a))
	}
	p.CheckInvariants()
}

// TestPrivateRWSPingPong demonstrates the coherence-miss ping-pong ISC
// eliminates: alternating writer/reader always misses.
func TestPrivateRWSPingPong(t *testing.T) {
	p := smallPrivate()
	a := memsys.Addr(0x3000)
	p.Access(0, 0, a, true) // M in core 0
	now := memsys.Cycle(100)
	for i := 0; i < 5; i++ {
		r := p.Access(now, 1, a, false)
		if r.Category != memsys.RWSMiss {
			t.Fatalf("reader iteration %d: %v, want RWS miss", i, r.Category)
		}
		now += 100
		w := p.Access(now, 0, a, true)
		if w.Category == memsys.Hit && i > 0 {
			// After the read, writer is in S; its write is an upgrade
			// hit (invalidation), which MESI allows — but the *reader*
			// must then miss again, which the next loop checks.
			_ = w
		}
		now += 100
	}
	p.CheckInvariants()
}

func TestPrivateEvictionRecordsReuse(t *testing.T) {
	p := smallPrivate()
	a := memsys.Addr(0x1000)
	p.Access(0, 0, a, false)  // core 0 has it
	p.Access(10, 1, a, false) // core 1: ROS miss, brought in
	p.Access(20, 1, a, false) // reuse 1
	// Evict core 1's copy via set conflicts: 4 KB 4-way 64 B = 16 sets.
	stride := 16 * 64
	for i := 1; i <= 4; i++ {
		p.Access(memsys.Cycle(100+i*10), 1, memsys.Addr(0x1000+i*stride), false)
	}
	if got := p.Stats().ReuseROS.Total(); got != 1 {
		t.Fatalf("ReuseROS lifetimes = %d, want 1", got)
	}
	if got := p.Stats().ReuseROS.Count(1); got != 1 {
		t.Errorf("1-reuse bucket = %d, want 1", got)
	}
}

func TestPrivateInvalidationRecordsRWSReuse(t *testing.T) {
	p := smallPrivate()
	a := memsys.Addr(0x3000)
	p.Access(0, 0, a, true)   // core 0 dirties
	p.Access(10, 1, a, false) // core 1: RWS miss
	p.Access(20, 1, a, false) // reuse 1
	p.Access(30, 1, a, false) // reuse 2
	p.Access(40, 0, a, true)  // write invalidates core 1
	if got := p.Stats().ReuseRWS.Total(); got != 1 {
		t.Fatalf("ReuseRWS lifetimes = %d, want 1", got)
	}
	if got := p.Stats().ReuseRWS.Count(2); got != 1 { // bucket 2 = 2-5 reuses
		t.Errorf("2-5-reuse bucket = %d, want 1", got)
	}
}

func TestPrivateRandomWorkloadInvariants(t *testing.T) {
	p := smallPrivate()
	r := rng.New(55)
	now := memsys.Cycle(0)
	for i := 0; i < 30000; i++ {
		coreID := r.Intn(4)
		var addr memsys.Addr
		if r.Bool(0.5) {
			addr = memsys.Addr(0x10000*(coreID+1) + r.Intn(32)*64)
		} else {
			addr = memsys.Addr(0x80000 + r.Intn(16)*64)
		}
		p.Access(now, coreID, addr, r.Bool(0.3))
		now += memsys.Cycle(r.Intn(20) + 1)
		if i%5000 == 0 {
			p.CheckInvariants()
		}
	}
	p.CheckInvariants()
	if p.Stats().Accesses.Total() != 30000 {
		t.Error("access count mismatch")
	}
}

func TestL2InterfaceCompliance(t *testing.T) {
	// All five designs satisfy memsys.L2 and the L1-invalidator hook.
	var designs = []memsys.L2{smallShared(), smallSNUCA(), smallPrivate()}
	for _, d := range designs {
		if _, ok := d.(memsys.L1Invalidator); !ok {
			t.Errorf("%s does not implement L1Invalidator", d.Name())
		}
		d.Access(0, 0, 0x400, false)
		if d.Stats().Accesses.Total() != 1 {
			t.Errorf("%s did not record the access", d.Name())
		}
	}
}

// TestPrivateWritebackOnlyOnModifiedEviction: evicting a Modified
// block reaches memory exactly once; clean evictions write nothing
// back.
func TestPrivateWritebackOnlyOnModifiedEviction(t *testing.T) {
	p := smallPrivate() // 16 sets, 4 ways
	base := memsys.Addr(0x8000)
	p.Access(0, 0, base, true) // M
	now := memsys.Cycle(100)
	for k := 1; k <= 4; k++ { // same set: fill the ways, then evict the M block
		p.Access(now, 0, base+memsys.Addr(k*16*64), false)
		now += 100
	}
	if p.Writebacks != 1 {
		t.Errorf("Writebacks = %d, want exactly 1 (the Modified eviction)", p.Writebacks)
	}
}
