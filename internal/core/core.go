// Package core implements CMP-NuRAPID, the paper's contribution: a
// hybrid last-level cache with private per-core tag arrays and a
// shared, distance-associative data array, extending uniprocessor
// NuRAPID to chip multiprocessors.
//
// The three optimizations (paper §3):
//
//   - Controlled replication (CR): a reader missing on a block that
//     already has an on-chip clean copy receives the forward *pointer*
//     over the bus instead of the data, and shares the existing copy.
//     Only on the second use is a data copy made in the reader's
//     closest d-group, so never-reused blocks cost no extra capacity.
//   - In-situ communication (ISC): read-write-shared blocks live in a
//     single data copy reached through multiple tag copies in the new
//     MESIC communication state; writers write it and readers read it
//     without coherence misses.
//   - Capacity stealing (CS): private blocks are placed in the closest
//     d-group and demoted toward neighbours' d-groups under capacity
//     pressure, letting cores with large working sets steal unused
//     frames from cores with small ones.
//
// Of the timing-issue countermeasures of §3.1, the busy-marked read is
// modelled: the frame a new copy is read from is the demotion chain's
// avoid argument (replace.go). Queue-ordered invalidation application
// guards a race between a replacement invalidation and an in-flight
// farther-d-group read; every access here completes atomically, so
// that race cannot occur and the mechanism is documented, not modelled.
package core

import (
	"fmt"
	"math"

	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/cache"
	"cmpnurapid/internal/coherence"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/rng"
	"cmpnurapid/internal/stats"
	"cmpnurapid/internal/topo"
)

// PromotionPolicy selects how private blocks migrate on reuse (§3.3.1).
type PromotionPolicy int

const (
	// Fastest promotes straight to the requesting core's closest
	// d-group — the policy the paper found most effective in CMPs
	// ("one core's next-fastest d-group is another core's fastest").
	Fastest PromotionPolicy = iota
	// NextFastest promotes one preference rank closer per reuse ([8]'s
	// uniprocessor policy, kept for the ablation).
	NextFastest
	// NoPromotion disables CS migration (ablation).
	NoPromotion
)

func (p PromotionPolicy) String() string {
	switch p {
	case Fastest:
		return "fastest"
	case NextFastest:
		return "next-fastest"
	case NoPromotion:
		return "none"
	}
	return fmt.Sprintf("PromotionPolicy(%d)", int(p))
}

// Config describes a CMP-NuRAPID instance.
type Config struct {
	BlockBytes memsys.Bytes

	// TagSets/TagWays size each core's private tag array. The paper
	// doubles the sets of a 2 MB private cache's tag (§2.2.2).
	TagSets int
	TagWays int

	// DGroupFrames is the number of block frames per d-group (one
	// d-group per core).
	DGroupFrames int

	// Latencies (cycles).
	TagLatency memsys.Cycles
	DGroupLat  [topo.NumCores][topo.NumDGroups]memsys.Cycles
	// DGroupOccupancy is how long one access keeps a d-group's single,
	// unpipelined port busy: the bank's intrinsic access time. The
	// remote-access latencies in DGroupLat additionally include wire
	// transit, which pipelines on the crossbar and does not hold the
	// bank. Must be positive.
	DGroupOccupancy memsys.Cycles
	MemLatency      memsys.Cycles

	Bus bus.Config

	// Replication selects the controlled-replication policy for
	// read-only-shared data; EnableISC turns in-situ communication on.
	// The full design uses ReplicateSecondUse + ISC; the other settings
	// exist for Figure 8's CR-only/ISC-only runs and the ablations.
	Replication ReplicationPolicy
	EnableISC   bool
	Promotion   PromotionPolicy

	// CMigrationThreshold implements the paper's future-work item
	// (§3.2): with no exits out of C, "a read-write shared block may
	// get stuck in the d-group closest to a processor that never
	// reuses the block", leaving the active sharers with slow hits.
	// When > 0, a sharer that reads the copy from a farther d-group
	// this many consecutive times migrates the single copy to its own
	// closest d-group (repointing every C tag, like the ISC read-miss
	// flow). 0 — the paper's published design — never migrates.
	CMigrationThreshold int

	Seed uint64
}

// ReplicationPolicy controls when a reader sharing a clean block makes
// its own data copy (§3.1).
type ReplicationPolicy int

const (
	// ReplicateSecondUse is controlled replication: pointer-share on
	// the first use, copy into the closest d-group on the second.
	ReplicateSecondUse ReplicationPolicy = iota
	// ReplicateFirstUse copies immediately, like an uncontrolled
	// private cache (CR disabled).
	ReplicateFirstUse
	// ReplicateNever always pointer-shares a single copy, like [6]'s
	// no-replication shared NUCA (ablation).
	ReplicateNever
)

func (r ReplicationPolicy) String() string {
	switch r {
	case ReplicateSecondUse:
		return "second-use (CR)"
	case ReplicateFirstUse:
		return "first-use (uncontrolled)"
	case ReplicateNever:
		return "never"
	}
	return fmt.Sprintf("ReplicationPolicy(%d)", int(r))
}

// DefaultConfig returns the paper's 8 MB 4-core configuration: four
// 2 MB single-ported d-groups, 8-way doubled tag arrays, Table 1
// latencies, and all three optimizations on.
func DefaultConfig() Config {
	l := topo.Derive()
	return Config{
		BlockBytes:      topo.BlockBytes,
		TagSets:         2 * (topo.PrivateBytes / (topo.BlockBytes * topo.PrivateAssoc)),
		TagWays:         topo.PrivateAssoc,
		DGroupFrames:    topo.DGroupBytes / topo.BlockBytes,
		TagLatency:      l.NuRAPIDTag,
		DGroupLat:       l.DGroupData,
		DGroupOccupancy: l.PrivateData, // a 2 MB bank's access time
		MemLatency:      300,
		Bus:             bus.Config{Latency: l.Bus, SlotCycles: 4},
		Replication:     ReplicateSecondUse,
		EnableISC:       true,
		Promotion:       Fastest,
		Seed:            1,
	}
}

// ptr is a forward pointer: a frame in a d-group. It is 8 bytes:
// Validate bounds DGroupFrames by the int32 frame index, and there are
// topo.NumDGroups d-groups.
type ptr struct {
	g int8
	f int32
}

// at is the pointer to frame f of d-group g.
func at(g, f int) ptr { return ptr{int8(g), int32(f)} }

func (p ptr) dgroup() int { return int(p.g) }
func (p ptr) frame() int  { return int(p.f) }

func (p ptr) String() string { return fmt.Sprintf("%s/%d", topo.DGroupNames[p.g], p.f) }

// tagPayload is the per-tag-entry payload: coherence state, forward
// pointer, and the block-lifetime bookkeeping behind Figure 7. It is
// 12 bytes, so a tag line is 32.
type tagPayload struct {
	fwd   ptr
	state coherence.State
	// broughtBy records the miss category that installed this entry;
	// reuses counts subsequent hits (saturating). Recorded into the
	// reuse histograms when the entry dies.
	broughtBy memsys.Category
	reuses    stats.Reuses
	// farReads counts consecutive farther-d-group reads of a C block,
	// for the optional stuck-copy migration extension. It resets on
	// reaching CMigrationThreshold, which Validate caps at 255.
	farReads uint8
}

// tagLine is one private tag array entry.
type tagLine = cache.Line[tagPayload]

// frameInfo is one data-array frame. revCore is the reverse pointer:
// the core whose tag entry owns (placed) this copy; the owning tag is
// found by probing that core's array for addr. Only the core closest
// to a d-group replaces frames from it, and BusRepl invalidates any
// other tags pointing here when the frame dies (§3.1).
type frameInfo struct {
	addr    memsys.Addr
	revCore int8
	valid   bool
}

// owner is the frame's reverse pointer as a core index.
func (f *frameInfo) owner() int { return int(f.revCore) }

// dgroup is one distance group of the shared data array.
type dgroup struct {
	frames []frameInfo
	free   []int32
	port   bus.Port
}

// Cache is a CMP-NuRAPID L2. It implements memsys.L2.
type Cache struct {
	cfg     Config
	tags    []*cache.Array[tagPayload]
	tagPort []bus.Port
	dgroups []*dgroup
	bus     *bus.Bus
	rand    *rng.Source
	stats   *memsys.L2Stats
	// l1Invalidate preserves multi-level inclusion: called whenever a
	// core's L1 must drop its copy of addr.
	l1Invalidate func(core int, addr memsys.Addr)
	// CMigrations counts stuck-C-copy migrations (the future-work
	// extension; zero under the paper's published design).
	CMigrations uint64
}

// Validate panics unless New can build the configuration: tag arrays
// cache.NewArray accepts that cover at least one d-group, a valid bus,
// non-negative latencies and thresholds, a positive d-group occupancy,
// and policies that exist. New runs it on every construction, so any
// hand-built Config fails fast instead of producing a silently
// misshapen cache.
func (cfg Config) Validate() {
	cache.ValidateArray[tagPayload](cfg.tagGeometry())
	if cfg.DGroupFrames <= 0 {
		panic("core: d-group frames must be positive")
	}
	if cfg.DGroupFrames > math.MaxInt32 {
		panic(fmt.Sprintf("core: d-group frames (%d) exceed the int32 frame pointer", cfg.DGroupFrames))
	}
	if cfg.TagSets*cfg.TagWays < cfg.DGroupFrames {
		panic("core: tag arrays must cover at least one d-group of frames")
	}
	cfg.Bus.Validate()
	if cfg.TagLatency < 0 || cfg.MemLatency < 0 {
		panic("core: negative tag or memory latency")
	}
	if cfg.DGroupOccupancy <= 0 {
		panic("core: d-group occupancy must be positive")
	}
	for _, row := range cfg.DGroupLat {
		for _, l := range row {
			if l < 0 {
				panic("core: negative d-group latency")
			}
		}
	}
	if cfg.Replication < ReplicateSecondUse || cfg.Replication > ReplicateNever {
		panic(fmt.Sprintf("core: unknown replication policy %d", int(cfg.Replication)))
	}
	if cfg.Promotion < Fastest || cfg.Promotion > NoPromotion {
		panic(fmt.Sprintf("core: unknown promotion policy %d", int(cfg.Promotion)))
	}
	if cfg.CMigrationThreshold < 0 {
		panic("core: negative CMigrationThreshold (0 disables migration)")
	}
	if cfg.CMigrationThreshold > math.MaxUint8 {
		panic(fmt.Sprintf("core: CMigrationThreshold (%d) exceeds 255, the far-read counter's range",
			cfg.CMigrationThreshold))
	}
}

// tagGeometry is the shape of each core's private tag array.
func (cfg Config) tagGeometry() cache.Geometry {
	return cache.Geometry{Sets: cfg.TagSets, Ways: cfg.TagWays, BlockBytes: cfg.BlockBytes}
}

// New builds a CMP-NuRAPID cache.
func New(cfg Config) *Cache {
	cfg.Validate()
	st := memsys.NewL2Stats()
	c := &Cache{
		cfg:     cfg,
		tagPort: make([]bus.Port, topo.NumCores),
		bus:     bus.New(cfg.Bus, st),
		rand:    rng.New(cfg.Seed),
		stats:   st,
	}
	for i := 0; i < topo.NumCores; i++ {
		c.tags = append(c.tags, cache.NewArray[tagPayload](cfg.tagGeometry()))
	}
	for g := 0; g < topo.NumDGroups; g++ {
		dg := &dgroup{frames: make([]frameInfo, cfg.DGroupFrames)}
		dg.free = make([]int32, cfg.DGroupFrames)
		for i := range dg.free {
			dg.free[i] = int32(cfg.DGroupFrames - 1 - i)
		}
		c.dgroups = append(c.dgroups, dg)
	}
	return c
}

// Name implements memsys.L2.
func (c *Cache) Name() string {
	cr := c.cfg.Replication == ReplicateSecondUse
	switch {
	case cr && c.cfg.EnableISC:
		return "CMP-NuRAPID"
	case cr:
		return "CMP-NuRAPID (CR only)"
	case c.cfg.EnableISC:
		return "CMP-NuRAPID (ISC only)"
	}
	return "CMP-NuRAPID (no CR/ISC)"
}

// Stats implements memsys.L2.
func (c *Cache) Stats() *memsys.L2Stats { return c.stats }

// SetL1Invalidate implements memsys.L1Invalidator.
func (c *Cache) SetL1Invalidate(fn func(core int, addr memsys.Addr)) {
	c.l1Invalidate = fn
}

// MaintainsL1Coherence implements memsys.L1Coherent: the MESIC
// protocol's snooping keeps the L1s coherent (BusRdX/BusUpg drops and
// inclusion invalidations).
func (c *Cache) MaintainsL1Coherence() {}

// LineState implements memsys.LineStateProber for stall diagnostics:
// core's MESIC tag state for addr, or "I" without a tag entry.
func (c *Cache) LineState(core int, addr memsys.Addr) string {
	l := c.tags[core].Probe(addr.BlockAddr(c.cfg.BlockBytes))
	if l == nil {
		return coherence.Invalid.String()
	}
	return l.Data.state.String()
}

// BusBacklog implements memsys.BusBacklogReporter.
func (c *Cache) BusBacklog(now memsys.Cycle) memsys.Cycles { return c.bus.Backlog(now) }

// IsCommunication reports whether core's copy of addr is in the MESIC
// communication state; the simulator uses this to apply §3.2's
// write-through-L1 rule to C blocks only.
func (c *Cache) IsCommunication(core int, addr memsys.Addr) bool {
	l := c.tags[core].Probe(addr.BlockAddr(c.cfg.BlockBytes))
	return l != nil && l.Data.state == coherence.Communication
}

// dropL1 invokes the inclusion callback.
func (c *Cache) dropL1(core int, addr memsys.Addr) {
	if c.l1Invalidate != nil {
		c.l1Invalidate(core, addr)
	}
}

// closest returns core's closest d-group.
func (c *Cache) closest(core int) int { return topo.Closest(core) }

// latTo returns the d-group access latency from core's position.
func (c *Cache) latTo(core, dg int) memsys.Cycles { return c.cfg.DGroupLat[core][dg] }

// dgAccess reserves dg's single port at cycle now for one access from
// core and returns the latency including any port contention.
func (c *Cache) dgAccess(now memsys.Cycle, core, dg int) memsys.Cycles {
	start := c.dgroups[dg].port.Acquire(now, c.cfg.DGroupOccupancy)
	return start.Sub(now) + c.latTo(core, dg)
}

// transact issues a bus transaction and returns the cycles it adds to
// the requester's critical path.
func (c *Cache) transact(now memsys.Cycle, op coherence.BusOp) memsys.Cycles {
	vis := c.bus.Transact(now, op)
	return vis.Sub(now)
}

// post issues a bus transaction that does not stall the requester
// beyond arbitration (used for the posted write-through invalidations
// of C-state writes).
func (c *Cache) post(now memsys.Cycle, op coherence.BusOp) memsys.Cycles {
	vis := c.bus.Transact(now, op)
	wait := vis.Sub(now) - c.bus.Latency()
	if wait < 0 {
		wait = 0
	}
	return wait
}

// killTag invalidates core's tag entry l (recording its lifetime) and
// drops the L1 copy for inclusion.
func (c *Cache) killTag(core int, l *tagLine) {
	addr := c.tags[core].AddrOf(l)
	c.stats.RecordLifetime(l.Data.broughtBy, l.Data.reuses)
	c.tags[core].Invalidate(l)
	c.dropL1(core, addr)
}
