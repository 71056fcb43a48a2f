package l2

import (
	"testing"

	"cmpnurapid/internal/cache"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/rng"
	"cmpnurapid/internal/topo"
)

func smallDNUCA() *SNUCA {
	return NewSNUCAWith(Migrate, 4<<10, 4, 64, smallDist(), 10, 300)
}

func TestDNUCAMissPlacesInBanksetNearestBank(t *testing.T) {
	d := smallDNUCA()
	a := memsys.Addr(0x1000)
	r := d.Access(0, 2, a, false)
	if r.Category != memsys.CapacityMiss {
		t.Fatalf("cold: %v", r.Category)
	}
	set := d.bankset(2, a)
	if got := d.BankOf(a); got != set[0] {
		t.Errorf("block placed in bank %d, want the bankset's nearest %d", got, set[0])
	}
	d.CheckInvariants()
}

// TestDNUCABanksetRestriction is the structural limitation [6]'s
// design carries and CMP-NuRAPID removes: for every core, one of the
// two banksets has no member in the core's closest bank, so those
// blocks can never be gathered next to the core.
func TestDNUCABanksetRestriction(t *testing.T) {
	d := smallDNUCA()
	for core := 0; core < topo.NumCores; core++ {
		withClosest := 0
		for bit := 0; bit < 2; bit++ {
			a := memsys.Addr(bit * 64)
			set := d.bankset(core, a)
			if set[0] == topo.Closest(core) || set[1] == topo.Closest(core) {
				withClosest++
			}
		}
		if withClosest != 1 {
			t.Errorf("core %d: %d banksets include its closest bank, want exactly 1", core, withClosest)
		}
	}
}

func TestDNUCAMigrationTowardRequester(t *testing.T) {
	d := smallDNUCA()
	a := memsys.Addr(0x1000) // bankset {a, d}
	d.Access(0, 0, a, false) // placed in a (P0's nearest in the set)
	// P3 reads: the block migrates to d (P3's nearest in the set).
	d.Access(100, 3, a, false)
	d.Access(200, 3, a, false)
	set := d.bankset(3, a)
	if got := d.BankOf(a); got != set[0] {
		t.Errorf("after P3 reads, block in bank %d, want %d", got, set[0])
	}
	if d.Migrations == 0 {
		t.Error("no migrations recorded")
	}
	d.CheckInvariants()
}

func TestDNUCASingleCopy(t *testing.T) {
	d := smallDNUCA()
	a := memsys.Addr(0x1000)
	for c := 0; c < 4; c++ {
		d.Access(memsys.Cycle(c*100), c, a, false)
	}
	// A bank holds only its bankset's blocks, indexed by the in-bank
	// address; the block must sit in exactly one of them.
	copies := 0
	for _, b := range d.bankset(0, a) {
		if d.banks[b].Probe(d.il.inner(a)) != nil {
			copies++
		}
	}
	if b := d.BankOf(a); b < 0 {
		t.Error("BankOf does not find the block")
	}
	if copies != 1 {
		t.Errorf("%d copies, want 1 (DNUCA does not replicate)", copies)
	}
	d.CheckInvariants()
}

// TestDNUCABankFoldingUsesFullSets: every bank holds one bankset's
// blocks, so the bankset bit must be folded out of the address the
// bank indexes with, as SNUCA folds its bank bits. Otherwise every
// block in a bank has the same low set-index bit and half of each
// bank's sets go unused.
func TestDNUCABankFoldingUsesFullSets(t *testing.T) {
	d := smallDNUCA() // 16 sets × 4 ways per bank
	now := memsys.Cycle(0)
	for i := 0; i < 64; i++ { // 32 blocks per bankset, all from core 0
		d.Access(now, 0, memsys.Addr(i*64), false)
		now += 100
	}
	sets := map[int]bool{}
	d.banks[topo.Closest(0)].ForEach(func(set int, _ *cache.Line[sharedPayload]) { sets[set] = true })
	if want := d.banks[0].Geometry().Sets; len(sets) != want {
		t.Errorf("core 0's bank uses %d of its %d sets; the bankset bit aliases into the index", len(sets), want)
	}
	for _, raw := range []memsys.Addr{0, 64, 0x1040, 0xffc0} {
		if got := d.il.outer(d.il.inner(raw), d.il.sel(raw)); got != raw {
			t.Errorf("round trip of %#x = %#x", raw, got)
		}
	}
	d.CheckInvariants()
}

// TestDNUCASharersPullBlockAround is [6]'s negative result the paper
// leans on: with multiple sharers pulling, the block keeps migrating
// and no sharer gets stable fast access.
func TestDNUCASharersPullBlockAround(t *testing.T) {
	d := smallDNUCA()
	a := memsys.Addr(0x1000)
	d.Access(0, 0, a, false)
	// Opposite-corner sharers alternate.
	banks := map[int]bool{}
	migBefore := d.Migrations
	now := memsys.Cycle(100)
	for i := 0; i < 40; i++ {
		d.Access(now, []int{0, 3}[i%2], a, false)
		banks[d.BankOf(a)] = true
		now += 50
	}
	if d.Migrations-migBefore < 10 {
		t.Errorf("only %d migrations under alternating sharers; the tug-of-war should continue",
			d.Migrations-migBefore)
	}
	if len(banks) < 2 {
		t.Error("block never moved between banks under opposing sharers")
	}
	d.CheckInvariants()
}

// TestDNUCASearchCostsAccumulate: a hit in the bankset's far bank pays
// a full wrong-probe round first — the requester cannot know where
// migration left the block.
func TestDNUCASearchCostsAccumulate(t *testing.T) {
	d := smallDNUCA()
	a := memsys.Addr(0x1000) // bankset {a, d}
	d.Access(0, 3, a, false) // placed at d (P3's nearest)
	// P0's access probes a first (wrong, full round: 2+10=12), then
	// hits in d (2+7*2+10=26): at least 38 cycles.
	r := d.Access(100, 0, a, false)
	if r.Category != memsys.Hit {
		t.Fatalf("expected hit, got %v", r.Category)
	}
	if r.Latency < 38 {
		t.Errorf("far-bank search hit = %d cycles, want >= 38 (wrong probe + far bank)", r.Latency)
	}
	d.CheckInvariants()
}

func TestDNUCARandomInvariants(t *testing.T) {
	d := smallDNUCA()
	r := rng.New(17)
	now := memsys.Cycle(0)
	for i := 0; i < 30000; i++ {
		coreID := r.Intn(4)
		var addr memsys.Addr
		if r.Hit(rng.ChanceOf(0.5)) {
			addr = memsys.Addr(0x10000*(coreID+1) + r.Intn(48)*64)
		} else {
			addr = memsys.Addr(0x80000 + r.Intn(24)*64)
		}
		d.Access(now, coreID, addr, r.Hit(rng.ChanceOf(0.3)))
		now += memsys.Cycle(r.Intn(20) + 1)
		if i%5000 == 0 {
			d.CheckInvariants()
		}
	}
	d.CheckInvariants()
	s := d.Stats()
	if s.Accesses.Count(memsys.LabelHit) == 0 || d.Migrations == 0 {
		t.Error("degenerate DNUCA run")
	}
}
