package l2

import (
	"fmt"
	"strings"
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
	return newPrivate(MESI, 4<<10, 4, 64, 10, bus.Config{Latency: 32, SlotCycles: 4}, 300)
}

// smallDist is a bank-distance table: 2 cycles plus 7 per hop.
func smallDist() [topo.NumCores][topo.NumDGroups]memsys.Cycles {
	var dist [topo.NumCores][topo.NumDGroups]memsys.Cycles
	for c := 0; c < topo.NumCores; c++ {
		for g := 0; g < topo.NumDGroups; g++ {
			dist[c][g] = memsys.CyclesOf(2 + 7*topo.Distance(c, g))
		}
	}
	return dist
}

func smallSNUCA() *SNUCA {
	return NewSNUCAWith(Static, 4<<10, 4, 64, smallDist(), 24, 300)
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
	s := NewUniformShared(topo.Derive())
	s.Access(0, 0, 0x1000, false)
	r := s.Access(100, 1, 0x1000, false)
	if r.Latency != 59 {
		t.Errorf("uniform-shared hit = %d cycles, want 59 (Table 1)", r.Latency)
	}
}

func TestIdealPaperLatency(t *testing.T) {
	s := NewIdeal(topo.Derive())
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
		seen[s.il.sel(memsys.Addr(i*64))] = true
	}
	if len(seen) != 4 {
		t.Errorf("4 consecutive blocks mapped to %d banks, want 4", len(seen))
	}
	// Same block always maps to the same bank.
	if s.il.sel(0x1040) != s.il.sel(0x1040) {
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
		if b.Probe(s.il.inner(a)) != nil {
			copies++
		}
	}
	if copies != 1 {
		t.Errorf("%d copies in SNUCA, want 1 (no replication)", copies)
	}
}

// TestSharedDesignsLineState: the cycle-limit diagnostics of the three
// shared designs report residency, and SNUCA and DNUCA name the bank.
func TestSharedDesignsLineState(t *testing.T) {
	in, out := memsys.Addr(0x1040), memsys.Addr(0x2040)
	sh, s, d := smallShared(), smallSNUCA(), smallDNUCA()
	for _, l2 := range []memsys.L2{sh, s, d} {
		l2.Access(0, 0, in, false)
	}
	for _, tc := range []struct {
		name string
		got  string
		want string
	}{
		{"shared resident", sh.LineState(1, in), "resident"},
		{"shared absent", sh.LineState(1, out), "absent"},
		{"SNUCA resident", s.LineState(1, in), fmt.Sprintf("resident(bank%d)", s.il.sel(in))},
		{"SNUCA absent", s.LineState(1, out), fmt.Sprintf("absent(bank%d)", s.il.sel(out))},
		{"DNUCA resident", d.LineState(1, in), fmt.Sprintf("resident(bank%d)", d.BankOf(in))},
		{"DNUCA absent", d.LineState(1, out), "absent"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: LineState = %q, want %q", tc.name, tc.got, tc.want)
		}
	}
}

// TestSNUCAEvictionInvalidatesAllL1s: a block evicted from a bank may
// sit in any core's L1 (inclusion), under both policies, and the L1s
// are told its full address, not the bank's folded one.
func TestSNUCAEvictionInvalidatesAllL1s(t *testing.T) {
	for _, s := range []*SNUCA{smallSNUCA(), smallDNUCA()} {
		victim := memsys.Addr(0x40) // bank 1 under Static, bankset {1,2} under Migrate
		dropped := map[int]bool{}
		s.SetL1Invalidate(func(core int, addr memsys.Addr) {
			if addr == victim {
				dropped[core] = true
			}
		})
		// Five blocks of victim's bankset in one set of the 16-set,
		// 4-way bank nearest core 1: the fifth evicts victim, the least
		// recently used.
		stride := memsys.Addr(16 * 64 << s.il.selBits)
		for i := 0; i < 5; i++ {
			s.Access(memsys.Cycle(100*i), 1, victim+memsys.Addr(i)*stride, false)
		}
		for c := 0; c < topo.NumCores; c++ {
			if !dropped[c] {
				t.Errorf("%s: core %d's L1 not invalidated on eviction of %#x", s.Name(), c, victim)
			}
		}
		if len(dropped) != topo.NumCores {
			t.Errorf("%s: eviction of %#x invalidated the L1s of cores %v, want exactly the %d cores",
				s.Name(), victim, dropped, topo.NumCores)
		}
		s.CheckInvariants()
	}
}

func TestSNUCAInnerOuterRoundTrip(t *testing.T) {
	s := smallSNUCA()
	for _, raw := range []memsys.Addr{0, 64, 128, 0x1040, 0xffc0, 0x12345 &^ 63} {
		b := s.il.sel(raw)
		if got := s.il.outer(s.il.inner(raw), b); got != raw.BlockAddr(64) {
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
		if s.il.sel(a) != 0 {
			continue
		}
		sets[bank.SetIndex(s.il.inner(a))] = true
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
	for _, p := range []*Private{smallPrivate(), smallUpdate()} {
		A, B := memsys.Addr(0x1000), memsys.Addr(0x2000)
		if r := p.Access(0, 0, A, false); r.Category != memsys.CapacityMiss {
			t.Errorf("%s cold: %v", p.Name(), r.Category)
		}
		if r := p.Access(100, 1, A, false); r.Category != memsys.ROSMiss {
			t.Errorf("%s clean elsewhere: %v, want ROS", p.Name(), r.Category)
		}
		p.Access(200, 2, B, true)
		if r := p.Access(300, 3, B, false); r.Category != memsys.RWSMiss {
			t.Errorf("%s dirty elsewhere: %v, want RWS", p.Name(), r.Category)
		}
		p.CheckInvariants()
	}
}

// TestPrivateEvictionInvalidatesL1: a core's L2 eviction drops that
// core's L1 copy of the victim (inclusion), under both protocols.
func TestPrivateEvictionInvalidatesL1(t *testing.T) {
	for _, p := range []*Private{smallPrivate(), smallUpdate()} {
		var dropped []memsys.Addr
		p.SetL1Invalidate(func(core int, addr memsys.Addr) {
			if core == 0 {
				dropped = append(dropped, addr)
			}
		})
		// Five blocks in one set of a 4-way, 16-set cache: the fifth
		// evicts the least recently used, block 0.
		for i := 0; i < 5; i++ {
			p.Access(memsys.Cycle(100*i), 0, memsys.Addr(i*1024), false)
		}
		if len(dropped) != 1 || dropped[0] != 0 {
			t.Errorf("%s: core 0's L1 drops %v, want [0]", p.Name(), dropped)
		}
		p.CheckInvariants()
	}
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
	for _, p := range []*Private{smallPrivate(), smallUpdate()} {
		r := rng.New(55)
		now := memsys.Cycle(0)
		for i := 0; i < 30000; i++ {
			coreID := r.Intn(4)
			var addr memsys.Addr
			if r.Hit(rng.ChanceOf(0.5)) {
				addr = memsys.Addr(0x10000*(coreID+1) + r.Intn(32)*64)
			} else {
				addr = memsys.Addr(0x80000 + r.Intn(16)*64)
			}
			p.Access(now, coreID, addr, r.Hit(rng.ChanceOf(0.3)))
			now += memsys.Cycle(r.Intn(20) + 1)
			if i%5000 == 0 {
				p.CheckInvariants()
			}
		}
		p.CheckInvariants()
		if p.Stats().Accesses.Total() != 30000 {
			t.Errorf("%s: access count mismatch", p.Name())
		}
	}
}

// TestPrivateInvariantsDetectBrokenOwnership: CheckInvariants refuses
// every ownership rule it states, under the protocol whose states the
// block holds.
func TestPrivateInvariantsDetectBrokenOwnership(t *testing.T) {
	a := memsys.Addr(0x1000)
	for _, c := range []struct {
		name   string
		p      *Private
		states [2]coherence.State
		want   string
	}{
		{"two M", smallUpdate(), [2]coherence.State{coherence.Modified, coherence.Modified}, "multiple exclusive owners"},
		{"E with S", smallPrivate(), [2]coherence.State{coherence.Exclusive, coherence.Shared}, "coexists with sharers"},
		{"two O", smallUpdate(), [2]coherence.State{coherence.Owned, coherence.Owned}, "2 dirty owners"},
		{"O under MESI", smallPrivate(), [2]coherence.State{coherence.Owned, coherence.Shared}, "O copy under MESI"},
	} {
		for core, st := range c.states {
			arr := c.p.caches[core]
			arr.Install(arr.Victim(a), a, privPayload{state: st})
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "l2: ") || !strings.Contains(msg, c.want) {
					t.Errorf("%s: CheckInvariants panicked with %q, want %q", c.name, msg, c.want)
				}
			}()
			c.p.CheckInvariants()
		}()
	}
}

func TestL2InterfaceCompliance(t *testing.T) {
	// Every baseline satisfies memsys.L2 and the L1-invalidator hook,
	// under the design name experiments and cmpsim select it by.
	var designs = []memsys.L2{smallShared(), smallSNUCA(), smallPrivate(), smallUpdate(), smallDNUCA()}
	names := []string{"uniform-shared", "non-uniform-shared", "private", "private-update", "non-uniform-shared-dynamic"}
	for i, d := range designs {
		if d.Name() != names[i] {
			t.Errorf("design %d is named %q, want %q", i, d.Name(), names[i])
		}
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
