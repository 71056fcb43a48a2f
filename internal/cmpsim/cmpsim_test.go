package cmpsim

import (
	"strings"
	"testing"

	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/core"
	"cmpnurapid/internal/l2"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
)

// scriptedWorkload replays fixed per-core op lists, then idles with
// compute ops.
type scriptedWorkload struct {
	ops [][]Op
	pos []int
}

func newScripted(ops [][]Op) *scriptedWorkload {
	return &scriptedWorkload{ops: ops, pos: make([]int, len(ops))}
}

func (w *scriptedWorkload) Next(core int) Op {
	if w.pos[core] < len(w.ops[core]) {
		op := w.ops[core][w.pos[core]]
		w.pos[core]++
		return op
	}
	return Op{Compute: 1, NoMem: true}
}

func (w *scriptedWorkload) Name() string { return "scripted" }

func smallCfg() Config {
	return Config{L1Bytes: 1 << 10, L1Ways: 2, L1Block: 64, L1Latency: 3}
}

func sharedL2() memsys.L2 {
	return l2.NewShared("uniform-shared", 16<<10, 4, 64, 59, 300)
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.L1Bytes != 64<<10 || cfg.L1Ways != 2 || cfg.L1Block != 64 {
		t.Errorf("L1 geometry %+v does not match §4.1", cfg)
	}
	if cfg.L1Latency != 3 {
		t.Errorf("L1 latency = %d, want 3", cfg.L1Latency)
	}
}

func TestL1HitLatency(t *testing.T) {
	ops := [][]Op{
		{{Addr: 0x100}, {Addr: 0x100}}, // second access is an L1 hit
		{}, {}, {},
	}
	s := New(smallCfg(), sharedL2(), newScripted(ops))
	r := s.Run(2)
	c := r.Cores[0]
	if c.L1DHits != 1 || c.L1DMisses != 1 {
		t.Errorf("L1 stats = %d hits / %d misses, want 1/1", c.L1DHits, c.L1DMisses)
	}
	// First access: 3 (L1) + 359 (L2 cold); second: 3.
	if c.Cycles != 3+359+3 {
		t.Errorf("core cycles = %d, want 365", c.Cycles)
	}
}

func TestComputeOpsAdvanceClock(t *testing.T) {
	ops := [][]Op{{{Compute: 100, NoMem: true}}, {}, {}, {}}
	s := New(smallCfg(), sharedL2(), newScripted(ops))
	r := s.Run(100)
	if r.Cores[0].Cycles != 100 || r.Cores[0].Instructions != 100 {
		t.Errorf("compute op: %d cycles %d instr, want 100/100",
			r.Cores[0].Cycles, r.Cores[0].Instructions)
	}
}

// TestEarlyFinisherReportsItsQuantum: a core that completes its
// quantum keeps running while a slower core catches up, but its
// results stop at the quantum. Core 1's cold L2 miss puts it far
// ahead in time, so cores 0, 2 and 3 finish at cycle 100 and then run
// on as laggards.
func TestEarlyFinisherReportsItsQuantum(t *testing.T) {
	ops := [][]Op{{}, {{Addr: 0x1000}}, {}, {}}
	s := New(smallCfg(), sharedL2(), newScripted(ops))
	r := s.Run(100)
	for c, cr := range r.Cores {
		if cr.Instructions != 100 {
			t.Errorf("core %d reports %d instructions, want its quantum of 100", c, cr.Instructions)
		}
	}
	if got := r.Cores[0].Cycles; got != 100 {
		t.Errorf("core 0 reports %d cycles, want the 100 it took to finish", got)
	}
	if s.cores[0].instructions <= 100 {
		t.Fatalf("core 0 stopped at %d instructions; the test needs it to run past its quantum", s.cores[0].instructions)
	}
}

func TestInstructionFetchUsesICache(t *testing.T) {
	ops := [][]Op{
		{{Addr: 0x200, Instr: true}, {Addr: 0x200, Instr: true}},
		{}, {}, {},
	}
	s := New(smallCfg(), sharedL2(), newScripted(ops))
	r := s.Run(2)
	c := r.Cores[0]
	if c.L1IHits != 1 || c.L1IMisses != 1 {
		t.Errorf("I-cache stats = %d/%d, want 1 hit / 1 miss", c.L1IHits, c.L1IMisses)
	}
	if c.L1DHits+c.L1DMisses != 0 {
		t.Error("instruction fetch touched the D-cache")
	}
}

// TestFetchAndLoadUseSeparateL1s: on a cold system, core 0 fetches an
// instruction from A and then loads A. The fetch fills the L1I only, so
// the load misses in the L1D: a fetch served from (and installed in)
// the L1D would turn the load into a hit.
func TestFetchAndLoadUseSeparateL1s(t *testing.T) {
	ops := [][]Op{
		{{Addr: 0x300, Instr: true}, {Addr: 0x300}},
		{}, {}, {},
	}
	s := New(smallCfg(), sharedL2(), newScripted(ops))
	c := s.Run(2).Cores[0]
	if c.L1IMisses != 1 || c.L1IHits != 0 {
		t.Errorf("I-cache stats = %d hits / %d misses, want 0/1", c.L1IHits, c.L1IMisses)
	}
	if c.L1DMisses != 1 || c.L1DHits != 0 {
		t.Errorf("D-cache stats = %d hits / %d misses, want 0/1 (the fetch filled the L1D?)", c.L1DHits, c.L1DMisses)
	}
}

func TestWriteBackL1AbsorbsRepeatedStores(t *testing.T) {
	ops := [][]Op{
		{
			{Addr: 0x300, Write: true}, // miss: L2 + install dirty
			{Addr: 0x300, Write: true}, // dirty hit: L1 only
			{Addr: 0x300, Write: true},
		},
		{}, {}, {},
	}
	sh := sharedL2()
	s := New(smallCfg(), sh, newScripted(ops))
	s.Run(3)
	if got := sh.Stats().Accesses.Total(); got != 1 {
		t.Errorf("L2 saw %d accesses, want 1 (write-back L1 absorbs stores)", got)
	}
}

func TestFirstStoreToCleanLineTakesOwnership(t *testing.T) {
	ops := [][]Op{
		{
			{Addr: 0x300},              // read miss: L2 access 1
			{Addr: 0x300, Write: true}, // first store: ownership, L2 access 2
			{Addr: 0x300, Write: true}, // dirty hit: local
		},
		{}, {}, {},
	}
	sh := sharedL2()
	s := New(smallCfg(), sh, newScripted(ops))
	s.Run(3)
	if got := sh.Stats().Accesses.Total(); got != 2 {
		t.Errorf("L2 saw %d accesses, want 2", got)
	}
}

// TestCBlockWritesThrough checks §3.2/§4.1: stores to MESIC C blocks
// reach the L2 every time.
func TestCBlockWritesThrough(t *testing.T) {
	nucfg := core.DefaultConfig()
	nucfg.Bus = bus.Config{Latency: 32, SlotCycles: 4}
	nu := core.New(nucfg)
	ops := [][]Op{
		{ // core 0: producer
			{Addr: 0x4000, Write: true},
			{Compute: 50, NoMem: true},  // let the consumer's read land
			{Addr: 0x4000, Write: true}, // now C: write-through
			{Addr: 0x4000, Write: true}, // still C: write-through
		},
		{ // core 1: consumer forms the C group
			{Compute: 20, NoMem: true},
			{Addr: 0x4000},
			{Compute: 100, NoMem: true},
		},
		{}, {},
	}
	s := New(smallCfg(), nu, newScripted(ops))
	s.Run(53)
	wt := s.cores[0].Writethroughs
	if wt < 2 {
		t.Errorf("producer write-throughs = %d, want >= 2", wt)
	}
	nu.CheckInvariants()
}

// TestCBlockStoreMissWritesThrough pins the L1-miss half of the C-block
// write-through rule: a store that misses the writer's L1 and lands on
// a communication block is counted as a write-through, exactly like a
// store that hits.
func TestCBlockStoreMissWritesThrough(t *testing.T) {
	nucfg := core.DefaultConfig()
	nucfg.Bus = bus.Config{Latency: 32, SlotCycles: 4}
	nu := core.New(nucfg)
	// smallCfg's L1 has 8 sets of 2 ways: 0x4200 and 0x4400 share
	// 0x4000's set and push it out of core 0's L1.
	ops := [][]Op{
		{ // core 0: producer
			{Addr: 0x4000, Write: true},
			{Compute: 50, NoMem: true}, // let the consumer's read land
			{Addr: 0x4200},
			{Addr: 0x4400},
			{Addr: 0x4000, Write: true}, // L1 miss on a C block
		},
		{ // core 1: consumer forms the C group
			{Compute: 20, NoMem: true},
			{Addr: 0x4000},
			{Compute: 100, NoMem: true},
		},
		{}, {},
	}
	s := New(smallCfg(), nu, newScripted(ops))
	r := s.Run(54)
	if !nu.IsCommunication(0, 0x4000) {
		t.Fatal("scenario did not leave 0x4000 a communication block for core 0")
	}
	if got := r.Cores[0].L1DMisses; got != 4 {
		t.Fatalf("producer L1D misses = %d, want 4 (the final store must miss)", got)
	}
	if got := r.Cores[0].Writethroughs; got != 1 {
		t.Errorf("producer write-throughs = %d, want 1 (the store miss to the C block)", got)
	}
	nu.CheckInvariants()
}

// TestInclusionInvalidation checks that an L2 eviction removes the L1
// copy: a subsequent read must miss the L1.
func TestInclusionInvalidation(t *testing.T) {
	// Direct-mapped 16-block shared L2 (1 KB): two conflicting blocks.
	sh := l2.NewShared("tiny", 1<<10, 1, 128, 10, 100)
	ops := [][]Op{
		{
			{Addr: 0x000}, // into L1 and L2
			{Addr: 0x400}, // evicts 0x000 from L2 (same set) → L1 inv
			{Addr: 0x000}, // must be an L1 miss again
		},
		{}, {}, {},
	}
	s := New(smallCfg(), sh, newScripted(ops))
	r := s.Run(3)
	if r.Cores[0].L1DMisses != 3 {
		t.Errorf("L1D misses = %d, want 3 (inclusion must invalidate)", r.Cores[0].L1DMisses)
	}
}

// TestL1SpansL2Block checks inclusion drops both 64 B halves of a
// 128 B L2 block.
func TestL1SpansL2Block(t *testing.T) {
	sh := l2.NewShared("tiny", 1<<10, 1, 128, 10, 100)
	ops := [][]Op{
		{
			{Addr: 0x000},
			{Addr: 0x040}, // second half of the same L2 block
			{Addr: 0x400}, // evicts the L2 block
			{Addr: 0x000},
			{Addr: 0x040},
		},
		{}, {}, {},
	}
	s := New(smallCfg(), sh, newScripted(ops))
	r := s.Run(5)
	if r.Cores[0].L1DMisses != 5 {
		t.Errorf("L1D misses = %d, want 5 (both halves must drop)", r.Cores[0].L1DMisses)
	}
}

// TestL2BlockInsideL1Block checks inclusion when an L1 block is larger
// than the L2's: dropping the 128 B L2 block at 0x080 must drop the
// 256 B L1 block that holds it, so the L1 block's first half misses.
func TestL2BlockInsideL1Block(t *testing.T) {
	sh := l2.NewShared("tiny", 1<<10, 1, 128, 10, 100)
	ops := [][]Op{
		{
			{Addr: 0x080}, // L1 block 0x000-0x0ff, L2 block 0x080
			{Addr: 0x480}, // evicts L2 block 0x080; another L1 way
			{Addr: 0x000}, // must miss: its L1 block was dropped
		},
		{}, {}, {},
	}
	cfg := smallCfg()
	cfg.L1Bytes, cfg.L1Block = 2<<10, 256
	r := New(cfg, sh, newScripted(ops)).Run(3)
	if r.Cores[0].L1DMisses != 3 {
		t.Errorf("L1D misses = %d, want 3 (the enclosing L1 block must drop)", r.Cores[0].L1DMisses)
	}
}

func TestRunInterleavesAllCores(t *testing.T) {
	ops := [][]Op{}
	for c := 0; c < 4; c++ {
		ops = append(ops, []Op{{Addr: memsys.Addr(0x1000 * (c + 1))}})
	}
	s := New(smallCfg(), sharedL2(), newScripted(ops))
	r := s.Run(1)
	for c, cr := range r.Cores {
		if cr.Instructions < 1 {
			t.Errorf("core %d retired %d instructions, want >= 1", c, cr.Instructions)
		}
	}
	if r.Instructions < 4 {
		t.Errorf("total instructions = %d, want >= 4", r.Instructions)
	}
}

func TestWarmupResetsStats(t *testing.T) {
	ops := [][]Op{}
	for c := 0; c < 4; c++ {
		var l []Op
		for i := 0; i < 50; i++ {
			l = append(l, Op{Addr: memsys.Addr(0x1000*(c+1) + i*64)})
		}
		ops = append(ops, l)
	}
	sh := sharedL2()
	s := New(smallCfg(), sh, newScripted(ops))
	s.Warmup(10)
	if sh.Stats().Accesses.Total() != 0 {
		t.Error("warmup did not reset L2 stats")
	}
	r := s.Run(5)
	if r.Cycles == 0 || r.Instructions == 0 {
		t.Error("post-warmup run recorded nothing")
	}
}

// TestWarmupRejectsNegativeCount: a negative count must panic with the
// package's prefix before any core steps, not wrap to 2^64-1
// instructions and run into the cycle ceiling.
func TestWarmupRejectsNegativeCount(t *testing.T) {
	s := New(smallCfg(), sharedL2(), lockstepWorkload{})
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.HasPrefix(msg, "cmpsim: ") {
			t.Fatalf("Warmup(-1) panicked with %v, want a \"cmpsim: \" message", r)
		}
		for c, cs := range s.cores {
			if cs.cycles != 0 || cs.instructions != 0 {
				t.Errorf("core %d ran to cycle %d (%d instructions) before the panic", c, cs.cycles, cs.instructions)
			}
		}
	}()
	s.Warmup(-1)
}

func TestSpeedup(t *testing.T) {
	fast := Results{IPC: 1.2}
	slow := Results{IPC: 1.0}
	if got := Speedup(fast, slow); got != 1.2 {
		t.Errorf("Speedup = %v, want 1.2", got)
	}
	if Speedup(fast, Results{}) != 0 {
		t.Error("Speedup with zero base should be 0")
	}

	// Per-core path: only cores with a nonzero base IPC are averaged,
	// and a single comparable core is enough.
	r := Results{Cores: []CoreResult{{IPC: 3}, {IPC: 1}, {IPC: 1}, {IPC: 1}}}
	base := Results{Cores: []CoreResult{{IPC: 2}, {}, {}, {}}}
	if got := Speedup(r, base); got != 1.5 {
		t.Errorf("Speedup over one comparable core = %v, want 1.5", got)
	}
	if got := Speedup(r, Results{Cores: make([]CoreResult, 4)}); got != 0 {
		t.Errorf("Speedup with no comparable core = %v, want 0", got)
	}
}

// TestOneCycleQuantumIPC: a core whose quantum took exactly one cycle
// still reports its IPC (the zero-cycle guard must not swallow it).
func TestOneCycleQuantumIPC(t *testing.T) {
	r := New(smallCfg(), sharedL2(), lockstepWorkload{}).Run(1)
	for c, cr := range r.Cores {
		if cr.Cycles != 1 || cr.Instructions != 1 || cr.IPC != 1 {
			t.Errorf("core %d: cycles %d, instructions %d, IPC %v; want 1, 1, 1",
				c, cr.Cycles, cr.Instructions, cr.IPC)
		}
	}
	if r.Cycles != 1 || r.IPC != 4 {
		t.Errorf("aggregate cycles %d, IPC %v; want 1, 4", r.Cycles, r.IPC)
	}
}

// TestIdealFasterThanUniformShared is the Figure 6 sanity check at
// system level: identical workloads, ideal wins.
func TestIdealFasterThanUniformShared(t *testing.T) {
	mk := func() [][]Op {
		ops := make([][]Op, 4)
		for c := 0; c < 4; c++ {
			for i := 0; i < 200; i++ {
				// L1-busting stride so the L2 latency matters.
				ops[c] = append(ops[c], Op{Addr: memsys.Addr(0x10000*(c+1) + (i%64)*1024)})
			}
		}
		return ops
	}
	uni := New(DefaultConfig(), l2.NewUniformShared(topo.Derive()), newScripted(mk()))
	idl := New(DefaultConfig(), l2.NewIdeal(topo.Derive()), newScripted(mk()))
	ru := uni.Run(200)
	ri := idl.Run(200)
	if Speedup(ri, ru) <= 1 {
		t.Errorf("ideal speedup %v over uniform-shared, want > 1", Speedup(ri, ru))
	}
}

// TestCrossCoreWriteInvalidatesL1I: the directory invalidation must
// drop I-cache copies too — a core re-fetching code another core just
// wrote (e.g. self-modifying or JIT-style sharing) must miss, not hit
// stale instructions.
func TestCrossCoreWriteInvalidatesL1I(t *testing.T) {
	ops := [][]Op{
		{
			{Addr: 0x1000, Instr: true},
			{Compute: 2000, NoMem: true},
			{Addr: 0x1000, Instr: true}, // after core 1's write: must re-fetch
		},
		{{Compute: 500, NoMem: true}, {Addr: 0x1000, Write: true}},
		{}, {},
	}
	s := New(smallCfg(), sharedL2(), newScripted(ops))
	r := s.Run(2002)
	c := r.Cores[0]
	if c.L1IMisses != 2 || c.L1IHits != 0 {
		t.Errorf("I-cache stats = %d hits / %d misses, want 0/2 (second fetch hit a stale line?)",
			c.L1IHits, c.L1IMisses)
	}
}

// TestL1InvalidationCoversExactlyTheL2Block: invalidating the L1 slices
// of one 128 B L2 block must not touch the adjacent block's L1 lines.
func TestL1InvalidationCoversExactlyTheL2Block(t *testing.T) {
	ops := [][]Op{
		{
			{Addr: 0x1000},
			{Addr: 0x1080}, // adjacent L2 block, own L1 line
			{Compute: 3000, NoMem: true},
			{Addr: 0x1080}, // must still be an L1 hit afterwards
		},
		{{Compute: 700, NoMem: true}, {Addr: 0x1000, Write: true}},
		{}, {},
	}
	s := New(smallCfg(), sharedL2(), newScripted(ops))
	r := s.Run(3003)
	c := r.Cores[0]
	if c.L1DMisses != 2 || c.L1DHits != 1 {
		t.Errorf("D-cache stats = %d hits / %d misses, want 1/2 (neighbour line wrongly invalidated?)",
			c.L1DHits, c.L1DMisses)
	}
}
