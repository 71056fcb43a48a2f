// Package cmpsim is the CMP system simulator: four in-order x86-style
// cores, each with split 64 KB 2-way L1 I and D caches (3-cycle, one
// outstanding miss), over any memsys.L2 design, with multi-level
// inclusion and the paper's write-through rule for MESIC C blocks
// (paper §4.1).
//
// Timing model: with in-order issue and a single outstanding miss —
// the paper's CPU model — a core's timeline is strictly sequential, so
// per-access latency accounting plus resource reservations (bus slots,
// single-ported tag arrays and d-groups) reproduces the cycle counts
// an event-driven pipeline model would give. Cores interleave in
// global-cycle order, so cross-core contention is seen in the order it
// would occur.
package cmpsim

import (
	"cmpnurapid/internal/cache"
	"cmpnurapid/internal/cacti"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
)

// Op is one unit of work from a workload stream: Compute non-memory
// instructions followed by one memory reference (unless NoMem).
type Op struct {
	Compute int // non-memory instructions preceding the reference
	Addr    memsys.Addr
	Write   bool
	Instr   bool // instruction fetch: routed through the L1 I-cache
	NoMem   bool // pure compute; Addr/Write/Instr ignored
}

// Workload supplies each core's instruction stream. Implementations
// must be deterministic for a fixed seed.
//
// The simulator draws each core's ops ahead of executing them, up to
// opBatch at a time, so a core's stream may depend only on that core's
// earlier draws: never on another core's draws, and never on the
// simulation. A System owns its workload; build a fresh one for each
// System. A workload that also has a Fill(core int, ops []Op) method
// is refilled through it, one call per batch (see filler).
type Workload interface {
	// Next returns core's next op. Streams are infinite.
	Next(core int) Op
	// Name identifies the workload in experiment output.
	Name() string
}

// filler is a workload that draws a batch of a core's ops in one call:
// Fill(core, ops) writes core's next len(ops) ops, exactly the ops that
// len(ops) calls of Next(core) would return. New uses a workload's Fill
// when it has one, and otherwise refills through Next.
type filler interface {
	Fill(core int, ops []Op)
}

// opBatch is the number of ops each core's buffer holds: the simulator
// calls into the workload once per opBatch ops of a core.
const opBatch = 64

// nextFiller fills a batch from a Next-only workload.
type nextFiller struct{ w Workload }

// Fill implements filler by calling Next once per op.
//
// hotpath:root
func (f nextFiller) Fill(core int, ops []Op) {
	for i := range ops {
		ops[i] = f.w.Next(core)
	}
}

// fillerOf resolves how a System refills its op buffers from w.
func fillerOf(w Workload) filler {
	f, ok := w.(filler)
	if !ok {
		f = nextFiller{w}
	}
	return f
}

// CommunicationProber is implemented by L2 designs (CMP-NuRAPID) whose
// C-state blocks require write-through L1s (§3.2: "we use write-through
// for all the C blocks in the L1 cache").
type CommunicationProber interface {
	IsCommunication(core int, addr memsys.Addr) bool
}

// Config sets the per-core L1 parameters (paper §4.1 defaults) and the
// robustness envelope every run executes under.
type Config struct {
	L1Bytes   memsys.Bytes
	L1Ways    int
	L1Block   memsys.Bytes
	L1Latency memsys.Cycles

	// MaxCycles is a hard cycle budget for each measurement Run phase:
	// a Run whose laggard core advances more than MaxCycles beyond the
	// phase's starting clock aborts with a
	// *CycleLimitExceeded. The budget is anchored at the
	// phase's start — the maximum core clock when the phase begins —
	// not at absolute cycle 0, so a Warmup (which deliberately never
	// rewinds clocks) does not silently spend the measurement run's
	// budget and a tight budget cannot trip on a healthy run the
	// moment it starts. Warmup phases are always bounded by the
	// ceiling derived from their instruction budget instead: a warmup
	// has no user-meaningful cycle quota, and the derived ceiling
	// already guarantees it cannot hang. 0 (the default) applies the
	// derived per-phase ceiling to Run phases too, so no phase can run
	// unbounded — see docs/ROBUSTNESS.md.
	MaxCycles memsys.Cycles
}

// DefaultConfig matches the paper: 64 KB 2-way split I/D, 64 B blocks,
// 3-cycle latency.
func DefaultConfig() Config {
	return Config{
		L1Bytes:   64 << 10,
		L1Ways:    2,
		L1Block:   64,
		L1Latency: cacti.ParallelCacheCycles(64<<10, 64, 2),
	}
}

// l1Line is an L1 line's payload: the dirty bit for write-back lines.
type l1Line struct {
	dirty bool
}

// coreState is one core's architectural progress. base* snapshots are
// taken at the end of warm-up so results report the measurement window
// only; clocks are never rewound (resource reservations hold absolute
// cycle numbers).
type coreState struct {
	cycles       memsys.Cycle
	instructions uint64
	l1d, l1i     *cache.Array[l1Line]
	id           int // the core's index, as the workload and the L2 name it
	// done marks a core that has completed the current phase's quantum.
	done bool
	// ops buffers the core's drawn but not yet executed ops: ops[pos:]
	// run before the next refill.
	ops []Op
	pos int

	baseCycles       memsys.Cycle
	baseInstructions uint64
	// end* snapshot the core's state when it completes its fixed work
	// quantum (endValid set); later instructions keep the system's
	// contention realistic but do not count toward results.
	endCycles       memsys.Cycle
	endInstructions uint64
	endValid        bool

	L1DHits, L1DMisses uint64
	L1IHits, L1IMisses uint64
	Writethroughs      uint64

	// last* record the core's most recent memory reference. With one
	// outstanding miss per core this is the reference a stalled core is
	// stuck behind; the cycle-limit diagnostic reports it.
	lastAddr     memsys.Addr
	lastWrite    bool
	lastInstr    bool
	lastMemValid bool
}

// System couples cores, L1s and an L2 design.
type System struct {
	cfg    Config
	l2     memsys.L2
	comm   CommunicationProber // nil unless the L2 has C blocks
	cores  [topo.NumCores]*coreState
	stream Workload
	fill   filler // stream's batched draw, resolved once by New
	// directory is set for L2 designs whose protocol does not keep the
	// L1s coherent itself (the shared caches): the simulator then acts
	// as the L2-resident L1 directory that real shared-L2 CMPs carry
	// (paper §2.2.2: "storing L1 tag copies at the L2 to keep L1
	// caches coherent").
	directory bool
}

// Validate panics unless the L1 configuration is one New can build:
// positive fields that make a power-of-two number of sets of
// power-of-two blocks. New runs it on every construction so
// hand-built configs fail fast.
func (cfg Config) Validate() {
	if cfg.L1Bytes <= 0 || cfg.L1Ways <= 0 || cfg.L1Block <= 0 || cfg.L1Latency <= 0 {
		panic("cmpsim: L1 geometry and latency must be positive")
	}
	cache.ValidateArray[l1Line](cfg.l1Geometry())
	if cfg.MaxCycles < 0 {
		panic("cmpsim: negative MaxCycles (0 derives a ceiling from the instruction budget)")
	}
}

// l1Geometry is the shape of each core's L1 I and D arrays.
func (cfg Config) l1Geometry() cache.Geometry {
	return cache.Geometry{
		Sets:       cfg.L1Bytes.Per(cfg.L1Block.Times(cfg.L1Ways)),
		Ways:       cfg.L1Ways,
		BlockBytes: cfg.L1Block,
	}
}

// New builds a system around the given L2 design and workload.
func New(cfg Config, l2 memsys.L2, w Workload) *System {
	cfg.Validate()
	s := &System{cfg: cfg, l2: l2, stream: w, fill: fillerOf(w)}
	if cp, ok := l2.(CommunicationProber); ok {
		s.comm = cp
	}
	if _, ok := l2.(memsys.L1Coherent); !ok {
		s.directory = true
	}
	geo := cfg.l1Geometry()
	for i := range s.cores {
		s.cores[i] = &coreState{
			l1d: cache.NewArray[l1Line](geo),
			l1i: cache.NewArray[l1Line](geo),
			id:  i,
			ops: make([]Op, opBatch),
			pos: opBatch, // empty: the first step fills it
		}
	}
	if inv, ok := l2.(memsys.L1Invalidator); ok {
		inv.SetL1Invalidate(s.invalidateL1)
	}
	return s
}

// L2 returns the underlying design.
func (s *System) L2() memsys.L2 { return s.l2 }

// l2Block is the span of one L2 block, which inclusion invalidations
// and dirty-copy probes cover in the L1s. L1 blocks are powers of two:
// a smaller one is probed at each L1Block step inside the L2 block, and
// a larger one holds the whole L2 block and is found at its start.
const l2Block memsys.Bytes = topo.BlockBytes

// invalidateL1 preserves inclusion: the L2 calls this when core must
// drop its L1 copies covering the L2 block.
func (s *System) invalidateL1(core int, addr memsys.Addr) {
	cs := s.cores[core]
	base := addr.BlockAddr(l2Block)
	for off := memsys.Bytes(0); off < l2Block; off += s.cfg.L1Block {
		a := base + memsys.Addr(off)
		if l := cs.l1d.Probe(a); l != nil {
			cs.l1d.Invalidate(l)
		}
		if l := cs.l1i.Probe(a); l != nil {
			cs.l1i.Invalidate(l)
		}
	}
}

// l2Access performs an L2 access, applying L1-directory coherence for
// designs without their own snooping: a write drops every other core's
// L1 copies of the block (so no core can read a stale line), and a
// read drops other cores' *dirty* L1 copies (write-back: the owner's
// next store must re-request through the L2, where the new reader's
// copy will then be dropped).
func (s *System) l2Access(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Result {
	res := s.l2.Access(now, core, addr, write)
	if s.directory {
		for o := 0; o < topo.NumCores; o++ {
			if o == core {
				continue
			}
			if write || s.dirtyL1Copy(o, addr) {
				s.invalidateL1(o, addr)
			}
		}
	}
	return res
}

// dirtyL1Copy reports whether core's L1 D-cache holds a dirty line of
// the L2 block containing addr.
func (s *System) dirtyL1Copy(core int, addr memsys.Addr) bool {
	base := addr.BlockAddr(l2Block)
	cs := s.cores[core]
	for off := memsys.Bytes(0); off < l2Block; off += s.cfg.L1Block {
		if l := cs.l1d.Probe(base + memsys.Addr(off)); l != nil && l.Data.dirty {
			return true
		}
	}
	return false
}

// access runs one memory reference for core cs and returns its
// latency.
func (s *System) access(cs *coreState, addr memsys.Addr, write, instr bool) memsys.Cycles {
	core := cs.id
	arr := cs.l1d
	if instr {
		arr = cs.l1i
	}
	lat := s.cfg.L1Latency
	now := cs.cycles.Add(lat)

	if l := arr.Probe(addr); l != nil {
		arr.Touch(l)
		if instr || !write {
			if instr {
				cs.L1IHits++
			} else {
				cs.L1DHits++
			}
			return lat
		}
		cs.L1DHits++
		// Write hit: C blocks write through on every store; clean
		// write-back lines take ownership at the L2 on the first store;
		// dirty write-back lines complete locally.
		if s.comm != nil && s.comm.IsCommunication(core, addr) {
			cs.Writethroughs++
			res := s.l2Access(now, core, addr, true)
			return lat + res.Latency
		}
		if !l.Data.dirty {
			res := s.l2Access(now, core, addr, true)
			// The L2 may have formed a communication group meanwhile;
			// C lines stay clean in the L1 so later stores write through.
			if s.comm == nil || !s.comm.IsCommunication(core, addr) {
				l.Data.dirty = true
			}
			return lat + res.Latency
		}
		return lat
	}

	// L1 miss.
	if instr {
		cs.L1IMisses++
	} else {
		cs.L1DMisses++
	}
	res := s.l2Access(now, core, addr, write)
	v := arr.Victim(addr)
	// Dirty victim write-back is functional only: the L2 already holds
	// the block in M (ownership was taken on the first store).
	nl := arr.Install(v, addr, l1Line{})
	comm := write && s.comm != nil && s.comm.IsCommunication(core, addr)
	if write && !comm {
		nl.Data.dirty = true
	}
	if comm {
		cs.Writethroughs++ // C lines stay clean: later stores write through
	}
	return lat + res.Latency
}

// step executes one op on core cs. Every op must do work: a memory op
// costs at least L1Latency cycles and a NoMem op its Compute cycles,
// so a NoMem op with no compute — which would retire nothing and leave
// the clock where it is — panics. Every step therefore advances the
// core's clock, and the cycle ceiling alone bounds every phase. A
// negative compute, which no instruction count can be, panics too.
//
// The op comes from the core's buffer, which one Fill call refills
// when it runs dry. Drawing ahead changes no simulated bit: a core's
// stream depends on nothing but its own earlier draws (see Workload).
func (s *System) step(cs *coreState) {
	if cs.pos == len(cs.ops) {
		s.fill.Fill(cs.id, cs.ops)
		cs.pos = 0
	}
	op := cs.ops[cs.pos]
	cs.pos++
	if op.Compute < 0 {
		panic("cmpsim: op with negative compute")
	}
	cs.cycles = cs.cycles.Add(memsys.CyclesOf(op.Compute)) // CPI 1 for non-memory work
	cs.instructions += uint64(op.Compute)
	if op.NoMem {
		if op.Compute == 0 {
			panic("cmpsim: zero-work op (NoMem with no compute) would stop the core's clock")
		}
		return
	}
	cs.lastAddr, cs.lastWrite, cs.lastInstr, cs.lastMemValid = op.Addr, op.Write, op.Instr, true
	lat := s.access(cs, op.Addr, op.Write, op.Instr)
	cs.cycles = cs.cycles.Add(lat)
	cs.instructions++
}

// Warmup executes at least instrPerCore instructions per core without
// counting them toward results (the paper warms every workload up
// before its measurement window). Core clocks are not rewound —
// resource reservations hold absolute cycle numbers — but per-core
// baselines and the L2 statistics are reset so results cover only the
// measurement window. A negative count panics before any step.
func (s *System) Warmup(instrPerCore int) {
	if instrPerCore < 0 {
		panic("cmpsim: negative warm-up instruction count")
	}
	s.runUntil(uint64(instrPerCore), warmupPhase)
	for _, cs := range s.cores {
		cs.baseCycles = cs.cycles
		cs.baseInstructions = cs.instructions
		cs.endValid = false
		cs.L1DHits, cs.L1DMisses = 0, 0
		cs.L1IHits, cs.L1IMisses = 0, 0
		cs.Writethroughs = 0
	}
	s.l2.Stats().Reset()
}

// Run executes a fixed work quantum — instrPerCore instructions per
// core beyond the warm-up baseline — and returns the results. Each
// core's cycle count is snapshotted the moment it completes its
// quantum; cores that finish early keep running (their later
// instructions keep bus and port contention realistic but are not
// counted), and the run ends when the slowest core completes. This is
// the standard fixed-work CMP methodology: aggregate IPC equals the
// total quantum divided by the slowest core's time.
func (s *System) Run(instrPerCore uint64) Results {
	s.runUntil(instrPerCore, runPhase)
	return s.results()
}

// reached reports whether core cs has completed the phase's quantum:
// instrPerCore instructions in all for a warmup, beyond the warm-up
// baseline for a Run. In a Run it also snapshots the core's end state
// the first time it holds, and the snapshot stands until the next
// Warmup clears it. Once true for a core, it is true for the rest of
// the phase.
func (cs *coreState) reached(phase phaseKind, instrPerCore uint64) bool {
	if phase == warmupPhase {
		return cs.instructions >= instrPerCore
	}
	if cs.endValid {
		return true
	}
	if cs.instructions-cs.baseInstructions < instrPerCore {
		return false
	}
	cs.endCycles = cs.cycles
	cs.endInstructions = cs.instructions
	cs.endValid = true
	return true
}

// derivedCyclesPerInstr is the per-instruction cycle budget used when
// Config.MaxCycles is 0: far beyond the worst legitimate per-access
// cost in the modelled hierarchy (L1 + bus + farthest d-group + memory
// plus contention is well under 10^3 cycles), so the derived ceiling
// only ever fires on a genuinely runaway simulation.
const derivedCyclesPerInstr = 4096

// derivedCeilingSlack covers phases whose instruction budget is tiny
// (Warmup(0), smoke tests) so the derived ceiling never rounds to now.
const derivedCeilingSlack memsys.Cycles = 1 << 22

// runUntil repeatedly advances the laggard core — the earliest local
// clock, ties to the lowest core index — until every core has reached
// the phase's quantum. Every core keeps executing until the slowest
// reaches its target (the paper likewise runs all cores and stops on
// the slowest's completion): a core is never frozen at its own target,
// because a frozen core's stale resource reservations would charge
// phantom wait cycles to the cores still running, and its extra
// instructions are real throughput.
//
// laggard picks the core without a data-dependent branch (see
// docs/PERF.md, "The scheduler loop"). Completion is an O(1)
// remaining-cores counter: reached is consulted only for the core that
// just stepped, the only core whose progress can have changed, so it
// runs (and a Run snapshots the core's quantum) at the same instant a
// per-step sweep over every core would have observed the crossing
// (sched_ref_test.go keeps that sweep as the differential reference).
//
// Every step advances the picked core's clock (step refuses zero-work
// ops), so the phase ends by completion or by crossing the cycle
// ceiling (docs/ROBUSTNESS.md): Config.MaxCycles, or a generous budget
// derived from instrPerCore when unset, both anchored at the phase's
// starting clock. The check observes the picked core's pre-step clock
// and panics with a *CycleLimitExceeded
// (TestCeilingTripIdenticalUnderHeap pins the diagnostic against the
// reference loop).
//
// hotpath:root
func (s *System) runUntil(instrPerCore uint64, phase phaseKind) {
	limit, derived := s.cycleCeiling(instrPerCore, phase)
	remaining := 0
	for _, cs := range s.cores {
		cs.done = cs.reached(phase, instrPerCore)
		if !cs.done {
			remaining++
		}
	}
	for remaining > 0 {
		cs := s.laggard()
		if now := cs.cycles; now > limit {
			panic(&CycleLimitExceeded{
				Limit: limit, Derived: derived, Now: now,
				Design: s.l2.Name(), Workload: s.stream.Name(),
				Cores: s.snapshotCores(), BusBacklog: s.busBacklog(now),
			})
		}
		s.step(cs)
		if !cs.done && cs.reached(phase, instrPerCore) {
			cs.done = true
			remaining--
		}
	}
}

// laggard's tournament is written for exactly four cores.
const _, _ uint = topo.NumCores - 4, 4 - topo.NumCores

// laggard returns the core with the earliest clock, ties to the lowest
// index: the pick of a linear scan with a strict <. It plays a
// tournament, 0 against 1 and 2 against 3, then the two winners, each
// match a strict < so the lower index keeps a tie. Each match is a
// single-assignment if on clocks loaded up front, which the compiler
// turns into a conditional move, so the pick has no branch for the
// clocks to mispredict. It must stay a call: inlined into runUntil,
// the picked pointer would feed the step's loads, and the compiler
// keeps a branch rather than make a load address wait on a
// conditional move.
//
//go:noinline
func (s *System) laggard() *coreState {
	a, b, c, d := s.cores[0], s.cores[1], s.cores[2], s.cores[3]
	ta, tb, tc, td := a.cycles, b.cycles, c.cycles, d.cycles
	if tb < ta {
		a = b
	}
	if td < tc {
		c = d
	}
	if min(tc, td) < min(ta, tb) {
		a = c
	}
	return a
}

// phaseKind distinguishes warmup from measurement phases for the
// cycle ceiling: only measurement Runs consume the explicit MaxCycles
// budget (see Config.MaxCycles).
type phaseKind int8

const (
	warmupPhase phaseKind = iota
	runPhase
)

// cycleCeiling resolves the phase's hard clock limit: the explicit
// MaxCycles for measurement Runs when set, else the budget derived
// from the phase's instruction quantum. Both anchor at the phase's
// starting clock (the maximum core clock when the phase begins) —
// clocks are never rewound across phases, so anchoring an explicit
// MaxCycles at absolute cycle 0, as an earlier loop did, silently
// spent part of the budget on warmup and tripped immediately on a
// healthy run whenever warmup had already consumed it
// (TestExplicitCeilingIsPhaseRelative pins the fix).
func (s *System) cycleCeiling(instrPerCore uint64, phase phaseKind) (limit memsys.Cycle, derived bool) {
	for _, cs := range s.cores {
		if cs.cycles > limit {
			limit = cs.cycles
		}
	}
	if phase == runPhase && s.cfg.MaxCycles > 0 {
		return limit.Add(s.cfg.MaxCycles), false
	}
	budget := memsys.CyclesOf(derivedCyclesPerInstr).Times(int(instrPerCore)) + derivedCeilingSlack
	return limit.Add(budget), true
}

// snapshotCores captures every core's architectural state for a
// ceiling diagnostic, including the L2's view of the line behind
// each core's most recent reference when the design can report it.
// It runs only inside a panic's argument, which the hotpath rule
// exempts.
func (s *System) snapshotCores() []CoreSnapshot {
	prober, _ := s.l2.(memsys.LineStateProber)
	snaps := make([]CoreSnapshot, 0, len(s.cores))
	for i, cs := range s.cores {
		snap := CoreSnapshot{
			Core: i, Cycles: cs.cycles, Instructions: cs.instructions,
			OutstandingMiss: cs.lastMemValid,
			Addr:            cs.lastAddr, Write: cs.lastWrite, Instr: cs.lastInstr,
			LineState: "?",
		}
		if prober != nil && cs.lastMemValid {
			snap.LineState = prober.LineState(i, cs.lastAddr)
		}
		snaps = append(snaps, snap)
	}
	return snaps
}

// busBacklog is the design's bus arbitration backlog at now, or -1
// when it has no bus.
func (s *System) busBacklog(now memsys.Cycle) memsys.Cycles {
	if br, ok := s.l2.(memsys.BusBacklogReporter); ok {
		return br.BusBacklog(now)
	}
	return memsys.CyclesOf(-1)
}

// CoreResult is one core's outcome.
type CoreResult struct {
	Cycles        memsys.Cycles
	Instructions  uint64
	IPC           float64
	L1DHits       uint64
	L1DMisses     uint64
	L1IHits       uint64
	L1IMisses     uint64
	Writethroughs uint64
}

// Results aggregates a run.
type Results struct {
	Design string
	Cores  []CoreResult
	// Cycles is the makespan: the slowest core's clock.
	Cycles       memsys.Cycles
	Instructions uint64
	// IPC is the aggregate instructions per cycle — the paper's
	// multiprogrammed metric; for multithreaded workloads the paper's
	// transactions/sec is proportional to 1/Cycles at fixed work.
	IPC float64
	L2  *memsys.L2Stats
}

func (s *System) results() Results {
	r := Results{Design: s.l2.Name(), L2: s.l2.Stats()}
	for _, cs := range s.cores {
		endC, endI := cs.cycles, cs.instructions
		if cs.endValid {
			endC, endI = cs.endCycles, cs.endInstructions
		}
		cr := CoreResult{
			Cycles:       endC.Sub(cs.baseCycles),
			Instructions: endI - cs.baseInstructions,
			L1DHits:      cs.L1DHits, L1DMisses: cs.L1DMisses,
			L1IHits: cs.L1IHits, L1IMisses: cs.L1IMisses,
			Writethroughs: cs.Writethroughs,
		}
		if cr.Cycles > 0 {
			cr.IPC = float64(cr.Instructions) / float64(cr.Cycles)
		}
		r.Cores = append(r.Cores, cr)
		if cr.Cycles > r.Cycles {
			r.Cycles = cr.Cycles
		}
		r.Instructions += cr.Instructions
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}
	return r
}

// Speedup returns r's performance relative to base as the weighted
// speedup: the mean over cores of the per-core IPC ratio, each core
// measured over its own fixed work quantum. For the symmetric
// multithreaded workloads this coincides with the aggregate-IPC ratio;
// for multiprogrammed mixes it is the standard fair metric — a design
// cannot look good by starving the cache-hungry application while the
// small ones spin.
func Speedup(r, base Results) float64 {
	if len(r.Cores) != len(base.Cores) || len(r.Cores) == 0 {
		if base.IPC == 0 {
			return 0
		}
		return r.IPC / base.IPC
	}
	sum, n := 0.0, 0
	for c := range r.Cores {
		if base.Cores[c].IPC > 0 {
			sum += r.Cores[c].IPC / base.Cores[c].IPC
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
