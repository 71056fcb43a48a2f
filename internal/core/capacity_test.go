package core

import (
	"testing"

	"cmpnurapid/internal/coherence"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
)

// Tests for the capacity properties the multiprogrammed evaluation
// rests on: the tag arrays bound each core's reach (the §5.2.1
// "slightly higher miss rates ... due to less tag capacity available
// to each core"), while the shared data array lets demand flow across
// d-groups.

// TestTagCapacityBoundsReach: a single core streaming more distinct
// blocks than its tag array holds must take misses even though the
// data array has room for them all.
func TestTagCapacityBoundsReach(t *testing.T) {
	cfg := tinyConfig() // 32 tag entries per core, 64 frames total
	c := New(cfg)
	tagEntries := cfg.TagSets * cfg.TagWays
	blocks := tagEntries + 16 // exceeds tag reach, fits data array? 48 > 32

	now := memsys.Cycle(0)
	for i := 0; i < blocks; i++ {
		c.Access(now, 0, memsys.Addr(i*64), false)
		now += 100
	}
	// Re-scan: some early blocks must have lost their tags (capacity
	// misses on re-access) even though 64 frames could hold all 48.
	misses := 0
	for i := 0; i < blocks; i++ {
		r := c.Access(now, 0, memsys.Addr(i*64), false)
		now += 100
		if r.Category != memsys.Hit {
			misses++
		}
	}
	if misses == 0 {
		t.Error("no misses despite exceeding the per-core tag reach")
	}
	c.CheckInvariants()
}

// TestSharedDataArrayAbsorbsSkewedDemand: one heavy core plus three
// idle ones — the heavy core's blocks must spread over multiple
// d-groups (capacity stealing) and all stay resident up to roughly the
// tag reach.
func TestSharedDataArrayAbsorbsSkewedDemand(t *testing.T) {
	cfg := tinyConfig()
	c := New(cfg)
	blocks := cfg.TagSets * cfg.TagWays // exactly the tag reach (32)
	now := memsys.Cycle(0)
	for i := 0; i < blocks; i++ {
		c.Access(now, 0, memsys.Addr(i*64), false)
		now += 100
	}
	occ := c.Occupancy()
	used := 0
	for _, o := range occ {
		if o > 0 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("occupancy %v: heavy core's blocks confined to one d-group", occ)
	}
	hits := 0
	for i := 0; i < blocks; i++ {
		if r := c.Access(now, 0, memsys.Addr(i*64), false); r.Category == memsys.Hit {
			hits++
		}
		now += 100
	}
	if hits < blocks*3/4 {
		t.Errorf("only %d/%d blocks resident after stealing; neighbours' capacity unused", hits, blocks)
	}
	c.CheckInvariants()
}

// TestDemotionsPreserveOwnership: blocks demoted into another core's
// d-group remain the original core's (revCore), so only their owner's
// tag reaches them and a hit by the owner still classifies as a hit.
func TestDemotionsPreserveOwnership(t *testing.T) {
	cfg := tinyConfig()
	c := New(cfg)
	now := memsys.Cycle(0)
	for i := 0; i < 24; i++ { // overflow d-group a (16 frames)
		c.Access(now, 0, memsys.Addr(i*64), false)
		now += 100
	}
	if c.Stats().Demotions == 0 {
		t.Fatal("no demotions")
	}
	// Another core reading a demoted block is a ROS miss (clean copy
	// exists), not a hit — the tags are private.
	var demoted memsys.Addr
	found := false
	for i := 0; i < 24 && !found; i++ {
		if _, dg := c.StateOf(0, memsys.Addr(i*64)); dg > 0 {
			demoted, found = memsys.Addr(i*64), true
		}
	}
	if !found {
		t.Fatal("no demoted block found")
	}
	if r := c.Access(now, 1, demoted, false); r.Category != memsys.ROSMiss {
		t.Errorf("foreign access to demoted block: %v, want ROS miss", r.Category)
	}
	c.CheckInvariants()
}

// TestBusReplOnlyForSharedEvictions: evicting private data moves no
// bus traffic (beyond the miss itself), while evicting a multi-pointer
// shared copy broadcasts BusRepl. Guards the paper's §3.1 accounting
// ("CMP-NuRAPID sends an invalidation on the bus every time a shared
// block is replaced").
func TestBusReplOnlyForSharedEvictions(t *testing.T) {
	cfg := tinyConfig()
	cfg.Replication = ReplicateNever // keep pointer sharers
	c := New(cfg)
	// Fill set 0 of core 0 with private blocks, then overflow it:
	// private evictions must not BusRepl.
	stride := cfg.TagSets * 64
	now := memsys.Cycle(0)
	for i := 0; i <= cfg.TagWays; i++ {
		c.Access(now, 0, memsys.Addr(0x100000+i*stride), true)
		now += 100
	}
	if got := c.Stats().BusTransactions.Count(memsys.LabelBusRepl); got != 0 {
		t.Errorf("private evictions sent %d BusRepl", got)
	}
	c.CheckInvariants()
}

// TestOwnerEvictionOfSharedCopy forces the §3.1 BusRepl flow: a core
// evicts its tag for a shared block whose data copy it owns; the copy
// dies, and every pointer-sharer's tag is invalidated so no dangling
// forward pointers remain.
func TestOwnerEvictionOfSharedCopy(t *testing.T) {
	cfg := tinyConfig()
	cfg.Replication = ReplicateNever // sharers keep pointing at P0's copies
	c := New(cfg)

	// Five shared blocks in P0's tag set 0 (8 sets, 64 B blocks: set-0
	// addresses are multiples of 512). The 4-way set overflows on the
	// fifth, evicting the LRU shared entry — X, whose copy P0 owns.
	X := memsys.Addr(0x2000)
	blocks := []memsys.Addr{X, 0x2200, 0x2400, 0x2600, 0x2800}
	now := memsys.Cycle(0)
	for _, a := range blocks {
		read(c, now, 0, a) // P0 owns the copy (E)
		now += 50
		read(c, now, 1, a) // P1 pointer-shares it (both S)
		now += 50
	}

	// X must be gone from both cores: P0's eviction sent BusRepl and
	// P1's pointer entry was invalidated with it.
	if st, _ := c.StateOf(0, X); st != coherence.Invalid {
		t.Errorf("P0 still has X in %v", st)
	}
	if st, _ := c.StateOf(1, X); st != coherence.Invalid {
		t.Errorf("P1's pointer to the evicted copy survived (%v): dangling", st)
	}
	if got := c.Stats().BusTransactions.Count(memsys.LabelBusRepl); got == 0 {
		t.Error("owner eviction of a shared copy sent no BusRepl")
	}
	// The other four blocks remain shared and reachable by both.
	for _, a := range blocks[1:] {
		if st, _ := c.StateOf(1, a); st != coherence.Shared {
			t.Errorf("block %#x lost by P1 (%v)", a, st)
		}
	}
	c.CheckInvariants()
}

// TestOwnershipByDGroup checks the capacity-stealing accounting used
// by the capacity report.
func TestOwnershipByDGroup(t *testing.T) {
	c := New(tinyConfig())
	now := memsys.Cycle(0)
	// 24 private blocks for core 0: 16 fill its d-group, 8 are stolen.
	for i := 0; i < 24; i++ {
		read(c, now, 0, memsys.Addr(i*64))
		now += 50
	}
	own, stolen := c.OwnershipByDGroup()
	if own[0] != 16 {
		t.Errorf("own[0] = %d, want 16 (full closest d-group)", own[0])
	}
	if stolen[0] != 8 {
		t.Errorf("stolen[0] = %d, want 8", stolen[0])
	}
	for _, cr := range []int{1, 2, 3} {
		if own[cr] != 0 || stolen[cr] != 0 {
			t.Errorf("idle core %d owns frames: own=%d stolen=%d", cr, own[cr], stolen[cr])
		}
	}
	tags := c.TagOccupancy()
	if tags[0] != 24 || tags[1] != 0 {
		t.Errorf("TagOccupancy = %v, want [24 0 0 0]", tags)
	}
}

// TestNextFastestPromotesOneStep: under the NextFastest policy a
// reused private block moves exactly one step up its core's preference
// order, not all the way to the closest d-group (§3.3.1's conservative
// promotion variant).
func TestNextFastestPromotesOneStep(t *testing.T) {
	cfg := tinyConfig()
	cfg.Promotion = NextFastest
	// Enough tag reach (64 entries) to keep every frame of all four
	// d-groups live at once, so demotion chains push blocks past
	// d-group b.
	cfg.TagSets = 16
	c := New(cfg)
	now := memsys.Cycle(0)
	for i := 0; i < 96; i++ { // overflow d-group a repeatedly
		c.Access(now, 0, memsys.Addr(i*64), false)
		now += 100
	}
	// Find a still-private block demoted at least two steps out.
	addr, cur := memsys.Addr(0), -1
	for i := 0; i < 96 && cur < 0; i++ {
		a := memsys.Addr(i * 64)
		if st, dg := c.StateOf(0, a); st == coherence.Exclusive && topo.Rank(0, dg) >= 2 {
			addr, cur = a, dg
		}
	}
	if cur < 0 {
		t.Fatal("no private block demoted two steps (tune the fill pattern)")
	}
	c.Access(now, 0, addr, false)
	want, _ := topo.NextFaster(0, cur)
	if _, dg := c.StateOf(0, addr); dg != want {
		t.Errorf("after reuse: d-group %d, want %d (one step up from %d, not the closest)", dg, want, cur)
	}
	c.CheckInvariants()
}
