// Package workload generates the synthetic memory-access streams that
// stand in for the paper's Simics-driven workloads (§4.3): three
// commercial multithreaded workloads (OLTP, Apache, SPECjbb), two
// SPLASH-2 scientific codes (ocean, barnes), and four multiprogrammed
// SPEC2K mixes (Table 2).
//
// Each profile is a small set of knobs — sharing fractions, footprint
// sizes, Zipf locality exponents, producer-consumer read/write ratios —
// calibrated so the workload *characterization* the paper measures
// (Figure 5's L2 access-type distribution and Figure 7's block-reuse
// patterns) is reproduced; the evaluation figures then emerge from the
// cache mechanisms rather than from tuning. See DESIGN.md's
// substitution record.
//
// Streams are deterministic per (profile, seed, core): each core draws
// from its own split of the seed, so a core's reference stream is
// identical across cache designs regardless of how the designs
// interleave the cores in time.
package workload

import (
	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/rng"
	"cmpnurapid/internal/topo"
)

// Address-space layout (byte addresses; regions far apart so classes
// never collide).
const (
	CodeBase    = 0x0000_0000
	ROBase      = 0x1000_0000
	RWBase      = 0x2000_0000
	PrivateBase = 0x4000_0000
	PrivateStep = 0x1000_0000 // per-core private region stride
)

// Profile parameterizes one workload.
type Profile struct {
	Name string

	// ComputeMin/Max bound the uniform number of non-memory
	// instructions between memory references.
	ComputeMin, ComputeMax int

	// InstrFrac is the probability a memory op is an instruction fetch
	// from the shared code region (read-only sharing through code).
	InstrFrac float64

	// Data-access class probabilities (of non-instruction ops).
	// PrivateFrac is implied as the remainder.
	ROFrac float64
	RWFrac float64

	// Footprints in 128 B blocks.
	CodeBlocks    int
	ROBlocks      int
	RWBlocks      int
	PrivateBlocks [topo.NumCores]int // per-core, non-uniform for mixes

	// Zipf locality exponents (higher = hotter).
	CodeTheta    float64
	ROTheta      float64
	RWTheta      float64
	PrivateTheta float64

	// RWModifyFrac is the probability an access to the read-write
	// shared region is a migratory read-modify-write pair (lock
	// acquire, counter update, log append): the core reads the block
	// and immediately stores to it, taking exclusive ownership. This
	// migratory pattern is what makes OLTP's misses RWS-dominated —
	// each migrating reader finds the previous owner's copy dirty.
	// The remaining RW accesses are pure reads, so between migrations
	// a block is read 2–5 times (Figure 7's reuse pattern).
	RWModifyFrac float64

	// RWWriteFrac is the probability an RW access is a standalone
	// store (producer-style update without a preceding read).
	RWWriteFrac float64

	// PrivateWriteFrac is the store fraction of private accesses.
	PrivateWriteFrac float64

	// RepeatFrac is the probability a memory op re-accesses one of the
	// core's recently touched addresses (temporal bursts: loop bodies,
	// stack traffic, sequential scans within a line). Bursts hit the
	// L1 and rarely reach the L2, so this knob sets the L1 hit rate —
	// commercial workloads run ~90% — without distorting the
	// L2-visible access-class mix.
	RepeatFrac float64

	Seed uint64
}

// repeatRing is the number of recent addresses bursts draw from.
const repeatRing = 8

// burstRing holds a core's most recent fresh references, which
// temporal bursts re-touch (see Profile.RepeatFrac).
type burstRing struct {
	ops    [repeatRing]cmpsim.Op
	n, pos int
}

// remember records a fresh reference, displacing the oldest.
func (r *burstRing) remember(op cmpsim.Op) {
	r.ops[r.pos] = op
	r.pos = (r.pos + 1) % repeatRing
	if r.n < repeatRing {
		r.n++
	}
}

// recent draws one of the remembered references uniformly. The ring
// must not be empty.
func (r *burstRing) recent(src *rng.Source) cmpsim.Op {
	return r.ops[src.Intn(r.n)]
}

// Generator produces cmpsim.Op streams from a Profile. It implements
// cmpsim.Workload.
type Generator struct {
	p     Profile
	cores [topo.NumCores]coreGen
	// The profile's per-op probabilities, converted once.
	repeat, instr, modify, rwWrite, privateWrite rng.Chance
}

type coreGen struct {
	r       *rng.Source
	code    rng.Zipf
	ro      rng.Zipf
	rw      rng.Zipf
	private rng.Zipf
	// pendingStore holds the second half of a read-modify-write pair.
	pendingStore memsys.Addr
	hasPending   bool
	ring         burstRing
}

// New builds a generator for the profile. Each distinct (footprint,
// theta) Zipf table is built once and shared read-only by every stream
// that draws from it: the four cores' code, RO and RW streams, and
// their private streams when the footprints are uniform.
func New(p Profile) *Generator {
	g := &Generator{
		p:            p,
		repeat:       rng.ChanceOf(p.RepeatFrac),
		instr:        rng.ChanceOf(p.InstrFrac),
		modify:       rng.ChanceOf(p.RWModifyFrac),
		rwWrite:      rng.ChanceOf(p.RWWriteFrac),
		privateWrite: rng.ChanceOf(p.PrivateWriteFrac),
	}
	type key struct {
		n     int
		theta float64
	}
	tables := map[key]*rng.ZipfTable{}
	table := func(blocks int, theta float64) *rng.ZipfTable {
		k := key{max1(blocks), theta}
		t, ok := tables[k]
		if !ok {
			t = rng.NewZipfTable(k.n, k.theta)
			tables[k] = t
		}
		return t
	}
	root := rng.New(p.Seed ^ 0x9e37_79b9)
	for c := 0; c < topo.NumCores; c++ {
		r := root.Split()
		g.cores[c] = coreGen{
			r:       r,
			code:    table(p.CodeBlocks, p.CodeTheta).Sampler(r.Split()),
			ro:      table(p.ROBlocks, p.ROTheta).Sampler(r.Split()),
			rw:      table(p.RWBlocks, p.RWTheta).Sampler(r.Split()),
			private: table(p.PrivateBlocks[c], p.PrivateTheta).Sampler(r.Split()),
		}
	}
	return g
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// Name implements cmpsim.Workload.
func (g *Generator) Name() string { return g.p.Name }

// Next implements cmpsim.Workload: one op, drawn by Fill.
//
// hotpath:root
func (g *Generator) Next(core int) cmpsim.Op {
	var op [1]cmpsim.Op
	g.Fill(core, op[:])
	return op[0]
}

// Fill writes core's next len(ops) ops, which cmpsim calls to refill a
// core's op buffer. It holds the generator's only copy of the stream
// logic, so any split of a stream into Fill and Next calls draws the
// same ops.
//
// hotpath:root
func (g *Generator) Fill(core int, ops []cmpsim.Op) {
	cg := &g.cores[core]
	p := &g.p
	private := memsys.Addr(PrivateBase + core*PrivateStep)
	for i := range ops {
		op := &ops[i]
		*op = cmpsim.Op{}

		// Complete a read-modify-write pair: the store follows the load
		// with no intervening work.
		if cg.hasPending {
			cg.hasPending = false
			op.Addr = cg.pendingStore
			op.Write = true
			continue
		}

		if p.ComputeMax > p.ComputeMin {
			op.Compute = p.ComputeMin + cg.r.Intn(p.ComputeMax-p.ComputeMin+1)
		} else {
			op.Compute = p.ComputeMin
		}

		// Temporal burst: re-touch a recent reference (as a load).
		if cg.ring.n > 0 && cg.r.Hit(g.repeat) {
			prev := cg.ring.recent(cg.r)
			op.Addr = prev.Addr
			op.Instr = prev.Instr
			continue
		}

		if cg.r.Hit(g.instr) {
			op.Instr = true
			op.Addr = CodeBase + memsys.Addr(cg.code.Next()*topo.BlockBytes)
			cg.ring.remember(*op)
			continue
		}
		x := cg.r.Float64()
		switch {
		case x < p.ROFrac:
			op.Addr = ROBase + memsys.Addr(cg.ro.Next()*topo.BlockBytes)
		case x < p.ROFrac+p.RWFrac:
			op.Addr = RWBase + memsys.Addr(cg.rw.Next()*topo.BlockBytes)
			switch {
			case cg.r.Hit(g.modify):
				// Migratory read-modify-write: emit the load now, queue
				// the store.
				cg.pendingStore = op.Addr
				cg.hasPending = true
			case cg.r.Hit(g.rwWrite):
				op.Write = true
			}
		default:
			op.Addr = private + memsys.Addr(cg.private.Next()*topo.BlockBytes)
			op.Write = cg.r.Hit(g.privateWrite)
		}
		cg.ring.remember(*op)
	}
}

// blocksForMB converts megabytes to 128 B block counts.
func blocksForMB(mb float64) int { return int(mb * 1024 * 1024 / topo.BlockBytes) }

// uniform returns the same per-core footprint for all cores.
func uniform(blocks int) [topo.NumCores]int {
	var f [topo.NumCores]int
	for i := range f {
		f[i] = blocks
	}
	return f
}
