package core

import (
	"runtime"
	"strings"
	"testing"

	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/coherence"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/rng"
	"cmpnurapid/internal/stats"
	"cmpnurapid/internal/topo"
)

// tinyConfig builds a small CMP-NuRAPID for direct inspection: 4 cores,
// 64 B blocks, 8-set 4-way tag arrays (32 entries per core), 16 frames
// per d-group (64 total), simple latencies.
func tinyConfig() Config {
	cfg := Config{
		BlockBytes: 64,
		TagSets:    8, TagWays: 4,
		DGroupFrames: 16,
		TagLatency:   1,
		MemLatency:   50,
		// The adjacent core's access time, DGroupLat[g][g] below.
		DGroupOccupancy: 2,
		Bus:             bus.Config{Latency: 8, SlotCycles: 2},
		Replication:     ReplicateSecondUse,
		EnableISC:       true,
		Promotion:       Fastest,
		Seed:            3,
	}
	for c := 0; c < topo.NumCores; c++ {
		for g := 0; g < topo.NumDGroups; g++ {
			cfg.DGroupLat[c][g] = memsys.CyclesOf(2 + 7*topo.Distance(c, g))
		}
	}
	return cfg
}

func read(c *Cache, now memsys.Cycle, core int, addr memsys.Addr) memsys.Result {
	return c.Access(now, core, addr, false)
}

func write(c *Cache, now memsys.Cycle, core int, addr memsys.Addr) memsys.Result {
	return c.Access(now, core, addr, true)
}

func TestColdMissIsCapacityMiss(t *testing.T) {
	c := New(tinyConfig())
	r := read(c, 0, 0, 0x1000)
	if r.Category != memsys.CapacityMiss {
		t.Errorf("cold miss category = %v, want capacity miss", r.Category)
	}
	if r.Latency < 50 {
		t.Errorf("cold miss latency %d < memory latency", r.Latency)
	}
	if st, dg := c.StateOf(0, 0x1000); st != coherence.Exclusive || dg != topo.Closest(0) {
		t.Errorf("after cold read: state %v d-group %d, want E in closest", st, dg)
	}
	c.CheckInvariants()
}

func TestColdWriteMissInstallsM(t *testing.T) {
	c := New(tinyConfig())
	write(c, 0, 0, 0x1000)
	if st, _ := c.StateOf(0, 0x1000); st != coherence.Modified {
		t.Errorf("cold write state = %v, want M", st)
	}
	c.CheckInvariants()
}

func TestHitLatencyClosest(t *testing.T) {
	c := New(tinyConfig())
	read(c, 0, 0, 0x1000)
	r := read(c, 100, 0, 0x1000)
	if r.Category != memsys.Hit || !r.ClosestDGroup {
		t.Errorf("second read: %+v, want closest hit", r)
	}
	// tag 1 + closest d-group 2 = 3.
	if r.Latency != 3 {
		t.Errorf("hit latency = %d, want 3", r.Latency)
	}
}

// TestControlledReplicationFigure3 walks the paper's Figure 3 example:
// (a) P0 has X in d-group a; (b) P1's first access gets a pointer to
// the copy in a, making no data copy; (c) P1's second access
// replicates X into its closest d-group b.
func TestControlledReplicationFigure3(t *testing.T) {
	c := New(tinyConfig())
	X := memsys.Addr(0x2000)

	// (a) P0 brings X into its closest d-group a.
	read(c, 0, 0, X)
	if st, dg := c.StateOf(0, X); st != coherence.Exclusive || dg != 0 {
		t.Fatalf("(a): P0 state %v d-group %d, want E in a", st, dg)
	}

	// (b) P1 reads X: ROS miss, pointer return, no data copy — P1's tag
	// points into d-group a.
	r := read(c, 100, 1, X)
	if r.Category != memsys.ROSMiss {
		t.Fatalf("(b): category %v, want ROS miss", r.Category)
	}
	if st, dg := c.StateOf(1, X); st != coherence.Shared || dg != 0 {
		t.Fatalf("(b): P1 state %v d-group %d, want S pointing at a", st, dg)
	}
	if st, _ := c.StateOf(0, X); st != coherence.Shared {
		t.Fatalf("(b): P0 state %v, want S (E downgraded by snoop)", st)
	}
	if c.stats.PointerReturns != 1 {
		t.Errorf("(b): PointerReturns = %d, want 1", c.stats.PointerReturns)
	}
	if c.stats.Replications != 0 {
		t.Errorf("(b): Replications = %d, want 0 (no copy on first use)", c.stats.Replications)
	}
	occ := c.Occupancy()
	if occ[0] != 1 || occ[1] != 0 {
		t.Fatalf("(b): occupancy %v, want the single copy in a", occ)
	}

	// (c) P1 reads X again: hit in the farther d-group, then replicate
	// into P1's closest d-group b.
	r = read(c, 200, 1, X)
	if r.Category != memsys.Hit || r.ClosestDGroup {
		t.Fatalf("(c): second use should hit in a farther d-group, got %+v", r)
	}
	if st, dg := c.StateOf(1, X); st != coherence.Shared || dg != 1 {
		t.Fatalf("(c): P1 state %v d-group %d, want S in b after replication", st, dg)
	}
	if st, dg := c.StateOf(0, X); st != coherence.Shared || dg != 0 {
		t.Fatalf("(c): P0 must keep its copy in a, got %v/%d", st, dg)
	}
	if c.stats.Replications != 1 {
		t.Errorf("(c): Replications = %d, want 1", c.stats.Replications)
	}
	occ = c.Occupancy()
	if occ[0] != 1 || occ[1] != 1 {
		t.Fatalf("(c): occupancy %v, want copies in both a and b", occ)
	}
	// Third use: fast local hit.
	r = read(c, 300, 1, X)
	if !r.ClosestDGroup {
		t.Error("(c+): third use should hit P1's closest d-group")
	}
	c.CheckInvariants()
}

func TestReplicateFirstUsePolicy(t *testing.T) {
	cfg := tinyConfig()
	cfg.Replication = ReplicateFirstUse
	c := New(cfg)
	X := memsys.Addr(0x2000)
	read(c, 0, 0, X)
	read(c, 100, 1, X)
	occ := c.Occupancy()
	if occ[0] != 1 || occ[1] != 1 {
		t.Errorf("first-use replication: occupancy %v, want immediate copy in b", occ)
	}
	c.CheckInvariants()
}

func TestReplicateNeverPolicy(t *testing.T) {
	cfg := tinyConfig()
	cfg.Replication = ReplicateNever
	c := New(cfg)
	X := memsys.Addr(0x2000)
	read(c, 0, 0, X)
	read(c, 100, 1, X)
	read(c, 200, 1, X)
	read(c, 300, 1, X)
	occ := c.Occupancy()
	if occ[0] != 1 || occ[1] != 0 {
		t.Errorf("never-replicate: occupancy %v, want single copy", occ)
	}
	c.CheckInvariants()
}

// TestInSituCommunicationReadMiss checks §3.2: a reader missing on a
// dirty block joins C, the data moves to the reader's closest d-group,
// and the writer's tag repoints without losing its copy.
func TestInSituCommunicationReadMiss(t *testing.T) {
	c := New(tinyConfig())
	X := memsys.Addr(0x3000)

	write(c, 0, 0, X) // P0 dirties X in d-group a
	r := read(c, 100, 1, X)
	if r.Category != memsys.RWSMiss {
		t.Fatalf("read of dirty block: category %v, want RWS miss", r.Category)
	}
	// Both in C; data copy now in P1's closest d-group b.
	if st, dg := c.StateOf(1, X); st != coherence.Communication || dg != 1 {
		t.Errorf("reader state %v/%d, want C pointing at b", st, dg)
	}
	if st, dg := c.StateOf(0, X); st != coherence.Communication || dg != 1 {
		t.Errorf("writer state %v/%d, want C repointed at b", st, dg)
	}
	occ := c.Occupancy()
	if occ[0] != 0 || occ[1] != 1 {
		t.Errorf("occupancy %v: old copy must be invalidated, new in b", occ)
	}
	c.CheckInvariants()
}

// TestInSituCommunicationNoCoherenceMisses checks the headline ISC
// property: after the group forms, repeated producer writes and
// consumer reads are all hits.
func TestInSituCommunicationNoCoherenceMisses(t *testing.T) {
	c := New(tinyConfig())
	X := memsys.Addr(0x3000)
	write(c, 0, 0, X)
	read(c, 100, 1, X) // group forms, copy in b

	now := memsys.Cycle(200)
	for i := 0; i < 10; i++ {
		w := write(c, now, 0, X)
		if w.Category != memsys.Hit {
			t.Fatalf("producer write %d: %v, want hit (no coherence miss)", i, w.Category)
		}
		if w.ClosestDGroup {
			t.Errorf("producer write %d hit the writer's closest d-group; copy should stay near the reader", i)
		}
		now += 50
		r := read(c, now, 1, X)
		if r.Category != memsys.Hit || !r.ClosestDGroup {
			t.Fatalf("consumer read %d: %+v, want closest-d-group hit", i, r)
		}
		now += 50
	}
	c.CheckInvariants()
}

// TestISCWriteMissJoinsGroup checks §3.2: a writer missing on a C block
// enters C pointing at the existing copy, which stays close to the
// reader.
func TestISCWriteMissJoinsGroup(t *testing.T) {
	c := New(tinyConfig())
	X := memsys.Addr(0x3000)
	write(c, 0, 0, X)
	read(c, 100, 1, X) // copy moves to b (P1's closest)
	// P2 writes: joins C, copy stays in b.
	r := write(c, 200, 2, X)
	if r.Category != memsys.RWSMiss {
		t.Fatalf("P2 write: %v, want RWS miss", r.Category)
	}
	if st, dg := c.StateOf(2, X); st != coherence.Communication || dg != 1 {
		t.Errorf("P2 state %v/%d, want C pointing at b", st, dg)
	}
	occ := c.Occupancy()
	if occ[1] != 1 || occ[0] != 0 || occ[2] != 0 {
		t.Errorf("occupancy %v, want single copy still in b", occ)
	}
	c.CheckInvariants()
}

// TestISCDisabledFallsBackToMESI checks the ISC-off ablation: a read of
// a dirty block downgrades the writer to S and the next write re-takes
// ownership (coherence misses are back).
func TestISCDisabledFallsBackToMESI(t *testing.T) {
	cfg := tinyConfig()
	cfg.EnableISC = false
	c := New(cfg)
	X := memsys.Addr(0x3000)
	write(c, 0, 0, X)
	r := read(c, 100, 1, X)
	if r.Category != memsys.RWSMiss {
		t.Fatalf("read of dirty: %v, want RWS miss", r.Category)
	}
	if st, _ := c.StateOf(0, X); st != coherence.Shared {
		t.Errorf("writer after flush: %v, want S", st)
	}
	if st, _ := c.StateOf(1, X); st != coherence.Shared {
		t.Errorf("reader: %v, want S", st)
	}
	// Writer writes again: upgrade invalidates the reader.
	w := write(c, 200, 0, X)
	if w.Category != memsys.Hit {
		t.Fatalf("upgrade write: %v, want S-state hit", w.Category)
	}
	if st, _ := c.StateOf(1, X); st != coherence.Invalid {
		t.Errorf("reader after upgrade: %v, want I", st)
	}
	// And the reader's next read is another RWS miss — the ping-pong
	// ISC eliminates.
	r = read(c, 300, 1, X)
	if r.Category != memsys.RWSMiss {
		t.Errorf("reader re-read: %v, want RWS miss", r.Category)
	}
	c.CheckInvariants()
}

// TestROSvsRWSvsCapacityClassification checks the miss taxonomy.
func TestROSvsRWSvsCapacityClassification(t *testing.T) {
	c := New(tinyConfig())
	A, B, C3 := memsys.Addr(0x1000), memsys.Addr(0x2000), memsys.Addr(0x3000)
	if r := read(c, 0, 0, A); r.Category != memsys.CapacityMiss {
		t.Errorf("cold: %v", r.Category)
	}
	if r := read(c, 10, 1, A); r.Category != memsys.ROSMiss {
		t.Errorf("clean copy exists: %v, want ROS", r.Category)
	}
	write(c, 20, 2, B)
	if r := read(c, 30, 3, B); r.Category != memsys.RWSMiss {
		t.Errorf("dirty copy exists: %v, want RWS", r.Category)
	}
	if r := write(c, 40, 0, C3); r.Category != memsys.CapacityMiss {
		t.Errorf("cold write: %v", r.Category)
	}
	c.CheckInvariants()
}

// TestSWriteUpgradeInvalidatesSharers checks S→M: both the pointer
// sharer and the copy owner lose their entries.
func TestSWriteUpgradeInvalidatesSharers(t *testing.T) {
	c := New(tinyConfig())
	X := memsys.Addr(0x2000)
	read(c, 0, 0, X)  // P0: E in a
	read(c, 10, 1, X) // P1: S pointer to a
	read(c, 20, 1, X) // P1 replicates into b
	read(c, 30, 2, X) // P2: S pointer (to a or b)
	w := write(c, 40, 1, X)
	if w.Category != memsys.Hit {
		t.Fatalf("S write: %v, want hit (upgrade)", w.Category)
	}
	if st, dg := c.StateOf(1, X); st != coherence.Modified || dg != 1 {
		t.Errorf("writer: %v/%d, want M in b", st, dg)
	}
	for _, o := range []int{0, 2} {
		if st, _ := c.StateOf(o, X); st != coherence.Invalid {
			t.Errorf("core %d after upgrade: %v, want I", o, st)
		}
	}
	occ := c.Occupancy()
	if occ[0] != 0 || occ[1] != 1 {
		t.Errorf("occupancy %v: P0's copy must be freed, P1's kept", occ)
	}
	c.CheckInvariants()
}

// TestSWriteUpgradeTakesOwnershipOfRemoteCopy: the writer's pointer
// targets another core's copy; ownership must transfer.
func TestSWriteUpgradeTakesOwnershipOfRemoteCopy(t *testing.T) {
	c := New(tinyConfig())
	X := memsys.Addr(0x2000)
	read(c, 0, 0, X)  // P0: E in a
	read(c, 10, 1, X) // P1: S pointer to P0's copy in a
	w := write(c, 20, 1, X)
	if w.Category != memsys.Hit {
		t.Fatalf("upgrade: %v", w.Category)
	}
	if st, dg := c.StateOf(1, X); st != coherence.Modified || dg != 0 {
		t.Errorf("writer: %v/%d, want M still pointing at a", st, dg)
	}
	if st, _ := c.StateOf(0, X); st != coherence.Invalid {
		t.Errorf("P0: %v, want I", st)
	}
	c.CheckInvariants()
}

// TestCapacityStealing fills core 0's closest d-group beyond capacity
// and checks overflow demotes into neighbours' d-groups instead of
// evicting, while the other cores are idle.
func TestCapacityStealing(t *testing.T) {
	cfg := tinyConfig()
	c := New(cfg)
	// 24 private blocks for core 0 (d-group holds 16). Use distinct
	// sets to avoid tag conflicts: 8 sets * 4 ways = 32 entries.
	misses := 0
	for i := 0; i < 24; i++ {
		r := read(c, memsys.Cycle(i*100), 0, memsys.Addr(i*64))
		if r.Category != memsys.Hit {
			misses++
		}
	}
	if misses != 24 {
		t.Fatalf("expected 24 cold misses, got %d", misses)
	}
	// All 24 blocks must still be on-chip: re-reads are hits.
	for i := 0; i < 24; i++ {
		r := read(c, memsys.Cycle(10000+i*100), 0, memsys.Addr(i*64))
		if r.Category != memsys.Hit {
			t.Errorf("block %d evicted despite free neighbour capacity", i)
		}
	}
	if c.stats.Demotions == 0 {
		t.Error("no demotions recorded during capacity stealing")
	}
	occ := c.Occupancy()
	total := occ[0] + occ[1] + occ[2] + occ[3]
	if total != 24 {
		t.Errorf("occupancy %v totals %d, want 24", occ, total)
	}
	if occ[0] != 16 {
		t.Errorf("closest d-group occupancy %d, want full (16)", occ[0])
	}
	c.CheckInvariants()
}

// TestPromotionFastest checks a demoted private block returns to the
// closest d-group on reuse.
func TestPromotionFastest(t *testing.T) {
	c := New(tinyConfig())
	for i := 0; i < 20; i++ {
		read(c, memsys.Cycle(i*100), 0, memsys.Addr(i*64))
	}
	// Find a demoted block.
	var demoted memsys.Addr
	found := false
	for i := 0; i < 20 && !found; i++ {
		if _, dg := c.StateOf(0, memsys.Addr(i*64)); dg > 0 {
			demoted, found = memsys.Addr(i*64), true
		}
	}
	if !found {
		t.Fatal("no demoted block found")
	}
	read(c, 5000, 0, demoted)
	if _, dg := c.StateOf(0, demoted); dg != 0 {
		t.Errorf("after reuse, block in d-group %d, want closest", dg)
	}
	if c.stats.Promotions == 0 {
		t.Error("no promotions recorded")
	}
	c.CheckInvariants()
}

// TestSharedBlocksNeverDemoted fills d-groups under contention and
// checks no shared block ever moves to a farther d-group without being
// re-replicated (the §3.3.2 rule); indirectly verified by invariants
// (a demoted shared block would leave a dangling reverse pointer and
// panic CheckInvariants).
func TestSharedBlocksNeverDemoted(t *testing.T) {
	c := New(tinyConfig())
	// Create shared blocks.
	for i := 0; i < 8; i++ {
		a := memsys.Addr(0x8000 + i*64)
		read(c, memsys.Cycle(i*10), 0, a)
		read(c, memsys.Cycle(i*10+500), 1, a)
		read(c, memsys.Cycle(i*10+1000), 1, a) // replicate
	}
	// Pressure core 0's closest d-group with private fills.
	for i := 0; i < 40; i++ {
		read(c, memsys.Cycle(5000+i*50), 0, memsys.Addr(i*64))
	}
	c.CheckInvariants() // would panic on any dangling pointer
}

// TestBusReplInvalidatesPointerSharers: evicting a shared data copy
// must kill the tags pointing at it on other cores (no dangling
// pointers), which then miss again.
func TestBusReplInvalidatesPointerSharers(t *testing.T) {
	cfg := tinyConfig()
	cfg.Replication = ReplicateNever // keep P1 pointing at P0's copy
	c := New(cfg)
	X := memsys.Addr(0x2000)
	read(c, 0, 0, X)
	read(c, 10, 1, X)
	if st, _ := c.StateOf(1, X); st != coherence.Shared {
		t.Fatal("setup failed")
	}
	busReplBefore := c.Stats().BusTransactions.Count(memsys.LabelBusRepl)

	// Force P0 to evict X's tag by filling its set: X is at set
	// (0x2000>>6)&7 = 0. Blocks at stride sets*block map to set 0.
	stride := 8 * 64
	for i := 1; i <= 4; i++ {
		read(c, memsys.Cycle(100+i*100), 0, memsys.Addr(0x2000+i*stride))
	}
	// P0's set-0 entries: X was LRU... X may be evicted; if the shared
	// X was the victim, P1's pointer must have been invalidated too.
	if st, _ := c.StateOf(0, X); st == coherence.Invalid {
		if st1, _ := c.StateOf(1, X); st1 != coherence.Invalid {
			t.Error("P0's copy evicted but P1's pointer survived (dangling)")
		}
		if c.Stats().BusTransactions.Count(memsys.LabelBusRepl) == busReplBefore {
			t.Error("shared-copy eviction sent no BusRepl")
		}
	}
	c.CheckInvariants()
}

// TestReuseHistograms checks Figure 7 bookkeeping: lifetimes of blocks
// brought by ROS/RWS misses are recorded with their reuse counts.
func TestReuseHistograms(t *testing.T) {
	c := New(tinyConfig())
	X := memsys.Addr(0x2000)
	read(c, 0, 0, X)  // P0 E
	read(c, 10, 1, X) // P1 ROS miss, 0 reuses so far
	read(c, 20, 1, X) // reuse 1 (replicates)
	read(c, 30, 1, X) // reuse 2
	// Evict P1's entry by upgrading from P0.
	write(c, 40, 0, X)
	if got := c.Stats().ReuseROS.Total(); got != 1 {
		t.Fatalf("ReuseROS lifetimes = %d, want 1", got)
	}
	if got := c.Stats().ReuseROS.Count(3); got != 0 {
		// bucket 3 is >5; two reuses lands in bucket 2 (2-5).
		t.Errorf("reuse bucket >5 = %d, want 0", got)
	}
	c.CheckInvariants()
}

// TestReuseCountSaturates: a tag's reuse counter is one byte that
// saturates, so a block hit 256, 257 or 300 times still records in
// ">5", where a wrapping counter would put the first two in "0" and
// "1".
func TestReuseCountSaturates(t *testing.T) {
	for _, hits := range []int{256, 257, 300} {
		c := New(tinyConfig())
		X := memsys.Addr(0x2000)
		read(c, 0, 0, X)  // P0 E
		read(c, 10, 1, X) // P1 ROS miss
		now := memsys.Cycle(20)
		for i := 0; i < hits; i++ {
			read(c, now, 1, X)
			now += 10
		}
		write(c, now, 0, X) // kills P1's entry
		h := c.Stats().ReuseROS
		if h.Total() != 1 || h.Count(stats.ReuseOver5) != 1 {
			t.Errorf("%d hits: ReuseROS = %v over %d lifetimes, want one lifetime in >5",
				hits, h.Fracs(), h.Total())
		}
	}
}

// TestRandomWorkloadInvariants fuzzes the full design and each
// ablation with a mixed shared/private random workload, checking
// invariants throughout.
func TestRandomWorkloadInvariants(t *testing.T) {
	type variant struct {
		name string
		mut  func(*Config)
	}
	variants := []variant{
		{"full", func(*Config) {}},
		{"no-isc", func(c *Config) { c.EnableISC = false }},
		{"first-use", func(c *Config) { c.Replication = ReplicateFirstUse }},
		{"never", func(c *Config) { c.Replication = ReplicateNever }},
		{"next-fastest", func(c *Config) { c.Promotion = NextFastest }},
		{"no-promotion", func(c *Config) { c.Promotion = NoPromotion }},
		{"no-isc-first-use", func(c *Config) { c.EnableISC = false; c.Replication = ReplicateFirstUse }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := tinyConfig()
			v.mut(&cfg)
			c := New(cfg)
			r := rng.New(77)
			now := memsys.Cycle(0)
			for i := 0; i < 30000; i++ {
				coreID := r.Intn(4)
				var addr memsys.Addr
				switch r.Intn(3) {
				case 0: // private per-core region
					addr = memsys.Addr(0x10000*(coreID+1) + r.Intn(40)*64)
				case 1: // read-only shared region
					addr = memsys.Addr(0x80000 + r.Intn(16)*64)
				default: // read-write shared region
					addr = memsys.Addr(0x90000 + r.Intn(8)*64)
				}
				isWrite := r.Hit(rng.ChanceOf(0.3))
				res := c.Access(now, coreID, addr, isWrite)
				if res.Latency <= 0 {
					t.Fatalf("non-positive latency at access %d", i)
				}
				now += memsys.Cycle(r.Intn(20) + 1)
				if i%2500 == 0 {
					c.CheckInvariants()
				}
			}
			c.CheckInvariants()
			st := c.Stats()
			if st.Accesses.Total() != 30000 {
				t.Errorf("recorded %d accesses, want 30000", st.Accesses.Total())
			}
			if st.Accesses.Count(memsys.LabelHit) == 0 {
				t.Error("degenerate run: no hits")
			}
		})
	}
}

// TestISCReducesRWSMisses compares RWS miss counts with and without
// ISC on a producer-consumer workload — the paper's central Figure 8
// claim (≈80% reduction).
func TestISCReducesRWSMisses(t *testing.T) {
	run := func(isc bool) uint64 {
		cfg := tinyConfig()
		cfg.EnableISC = isc
		c := New(cfg)
		X := memsys.Addr(0x3000)
		now := memsys.Cycle(0)
		for i := 0; i < 200; i++ {
			write(c, now, 0, X)
			now += 50
			for _, reader := range []int{1, 2} {
				for j := 0; j < 3; j++ { // each write read multiple times
					read(c, now, reader, X)
					now += 50
				}
			}
		}
		return c.Stats().Accesses.Count(memsys.LabelRWS)
	}
	withISC, withoutISC := run(true), run(false)
	if withISC*4 >= withoutISC {
		t.Errorf("ISC RWS misses %d not <25%% of MESI's %d", withISC, withoutISC)
	}
}

// TestCRReducesCapacityPressure: with many streamed read-shared blocks
// that are touched once per core, CR should keep fewer data copies than
// first-use replication.
func TestCRReducesCapacityPressure(t *testing.T) {
	occupied := func(policy ReplicationPolicy) int {
		cfg := tinyConfig()
		cfg.Replication = policy
		c := New(cfg)
		now := memsys.Cycle(0)
		for i := 0; i < 12; i++ {
			a := memsys.Addr(0x8000 + i*64)
			for coreID := 0; coreID < 4; coreID++ {
				read(c, now, coreID, a) // single use per core: no reuse
				now += 10
			}
		}
		occ := c.Occupancy()
		return occ[0] + occ[1] + occ[2] + occ[3]
	}
	cr, first := occupied(ReplicateSecondUse), occupied(ReplicateFirstUse)
	if cr >= first {
		t.Errorf("CR occupies %d frames, first-use %d; CR should use fewer", cr, first)
	}
	if cr != 12 {
		t.Errorf("CR occupancy = %d, want 12 (one copy per block)", cr)
	}
}

func TestNameByConfig(t *testing.T) {
	cfg := tinyConfig()
	if New(cfg).Name() != "CMP-NuRAPID" {
		t.Error("full design name wrong")
	}
	cfg.EnableISC = false
	if New(cfg).Name() != "CMP-NuRAPID (CR only)" {
		t.Error("CR-only name wrong")
	}
	cfg.EnableISC = true
	cfg.Replication = ReplicateFirstUse
	if New(cfg).Name() != "CMP-NuRAPID (ISC only)" {
		t.Error("ISC-only name wrong")
	}
}

func TestDefaultConfigConstructs(t *testing.T) {
	c := New(DefaultConfig())
	// Smoke-run the paper-scale geometry.
	r := rng.New(5)
	now := memsys.Cycle(0)
	for i := 0; i < 5000; i++ {
		c.Access(now, r.Intn(4), memsys.Addr(r.Intn(1<<20)), r.Hit(rng.ChanceOf(0.3)))
		now += 10
	}
	c.CheckInvariants()
}

// TestValidateRejectsUnbuildable: Validate itself must reject every
// config New cannot build or that would run with a meaningless
// parameter, not leave it to a panic inside cache or bus, or to a
// silent run.
func TestValidateRejectsUnbuildable(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"TagSets=3":              func(c *Config) { c.TagSets = 3 },
		"TagSets=5":              func(c *Config) { c.TagSets = 5 }, // 20 tags cover 16 frames
		"BlockBytes=96":          func(c *Config) { c.BlockBytes = 96 },
		"Bus.Latency=0":          func(c *Config) { c.Bus.Latency = 0 },
		"Bus.SlotCycles=0":       func(c *Config) { c.Bus.SlotCycles = 0 },
		"TagLatency=-1":          func(c *Config) { c.TagLatency = -1 },
		"MemLatency=-1":          func(c *Config) { c.MemLatency = -1 },
		"DGroupOccupancy=-1":     func(c *Config) { c.DGroupOccupancy = -1 },
		"DGroupOccupancy=0":      func(c *Config) { c.DGroupOccupancy = 0 },
		"DGroupLat[3][0]=-1":     func(c *Config) { c.DGroupLat[3][0] = -1 },
		"Promotion=7":            func(c *Config) { c.Promotion = 7 },
		"Promotion=-1":           func(c *Config) { c.Promotion = -1 },
		"Replication=9":          func(c *Config) { c.Replication = 9 },
		"Replication=-1":         func(c *Config) { c.Replication = -1 },
		"CMigrationThreshold=-1": func(c *Config) { c.CMigrationThreshold = -1 },
	} {
		cfg := tinyConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted by Validate", name)
				}
			}()
			cfg.Validate()
		}()
	}
}

// TestValidateRejectsNarrowedFieldOverflow: a value too wide for the
// one-byte far-read counter or the int32 frame index, or a tag line
// count that overflows int or that no make could allocate at the tag
// line's 32 bytes (2^44 lines would fit at 16), is refused by Validate
// with a message naming that cause before New allocates anything. The
// frame case keeps tinyConfig's 32 tags, so even without the frame
// check New would panic on tag coverage, not build 2^31 frames.
func TestValidateRejectsNarrowedFieldOverflow(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"CMigrationThreshold=256", func(c *Config) { c.CMigrationThreshold = 256 },
			"core: CMigrationThreshold (256) exceeds 255"},
		{"DGroupFrames=2^31", func(c *Config) { c.DGroupFrames = 1 << 31 },
			"core: d-group frames (2147483648) exceed the int32 frame pointer"},
		{"TagSets=2^40,TagWays=2^20", func(c *Config) { c.TagSets, c.TagWays = 1<<40, 1<<20 },
			"cache: 1099511627776 sets × 1048576 ways of 32-byte lines exceed the 8796093022208 lines an array can allocate"},
		{"TagSets=2^40,TagWays=16", func(c *Config) { c.TagSets, c.TagWays = 1<<40, 16 },
			"cache: 1099511627776 sets × 16 ways of 32-byte lines exceed the 8796093022208 lines an array can allocate"},
		{"TagSets=2^40,TagWays=2^30", func(c *Config) { c.TagSets, c.TagWays = 1<<40, 1<<30 },
			"cache: 1099511627776 sets × 1073741824 ways overflow an int line count"},
	} {
		cfg := tinyConfig()
		c.mutate(&cfg)
		var msg string
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		func() {
			defer func() { msg, _ = recover().(string) }()
			New(cfg)
		}()
		runtime.ReadMemStats(&after)
		if !strings.HasPrefix(msg, c.want) {
			t.Errorf("%s: New panicked with %q, want prefix %q", c.name, msg, c.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: New allocated %d B before refusing the config", c.name, grew)
		}
	}
}

// TestValidateAcceptsBoundaries: the smallest legal value of each
// field Validate bounds still builds.
func TestValidateAcceptsBoundaries(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"DGroupFrames=1":          func(c *Config) { c.DGroupFrames = 1 },
		"TagLatency=0":            func(c *Config) { c.TagLatency = 0 },
		"MemLatency=0":            func(c *Config) { c.MemLatency = 0 },
		"DGroupOccupancy=1":       func(c *Config) { c.DGroupOccupancy = 1 },
		"DGroupLat[0][0]=0":       func(c *Config) { c.DGroupLat[0][0] = 0 },
		"Promotion=NoPromotion":   func(c *Config) { c.Promotion = NoPromotion },
		"Replication=Never":       func(c *Config) { c.Replication = ReplicateNever },
		"CMigrationThreshold=0":   func(c *Config) { c.CMigrationThreshold = 0 },
		"CMigrationThreshold=255": func(c *Config) { c.CMigrationThreshold = 255 },
		"TagWays=128":             func(c *Config) { c.TagWays = 128 },
		"Bus.SlotCycles=1":        func(c *Config) { c.Bus.SlotCycles = 1 },
	} {
		cfg := tinyConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s rejected: %v", name, r)
				}
			}()
			New(cfg)
		}()
	}
}

func TestIsCommunication(t *testing.T) {
	c := New(tinyConfig())
	X := memsys.Addr(0x3000)
	write(c, 0, 0, X)
	if c.IsCommunication(0, X) {
		t.Error("M block reported as C")
	}
	read(c, 10, 1, X)
	if !c.IsCommunication(0, X) || !c.IsCommunication(1, X) {
		t.Error("C block not reported")
	}
}

// TestL1InvalidateCallback checks the inclusion hook fires for sharers
// on C-state writes and on tag invalidations.
func TestL1InvalidateCallback(t *testing.T) {
	c := New(tinyConfig())
	invalidated := map[[2]uint64]int{}
	c.SetL1Invalidate(func(core int, addr memsys.Addr) {
		invalidated[[2]uint64{uint64(core), uint64(addr)}]++
	})
	X := memsys.Addr(0x3000)
	write(c, 0, 0, X)
	read(c, 10, 1, X)  // forms C group
	write(c, 20, 0, X) // C write → P1's L1 copy must drop
	if invalidated[[2]uint64{1, uint64(X)}] == 0 {
		t.Error("C-state write did not invalidate the sharer's L1 copy")
	}
}
