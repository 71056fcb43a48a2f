package cmpsim

import (
	"reflect"
	"testing"

	"cmpnurapid/internal/core"
	"cmpnurapid/internal/l2"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/rng"
	"cmpnurapid/internal/topo"
)

// lockstepWorkload keeps every core clock-equal forever: identical
// one-cycle compute ops, no memory. Every scheduler pick is therefore
// a clock tie, which makes it the sharpest probe of the tie-break rule
// — any deviation from lowest-core-index-first shows up immediately.
type lockstepWorkload struct{}

func (lockstepWorkload) Next(core int) Op { return Op{Compute: 1, NoMem: true} }
func (lockstepWorkload) Name() string     { return "lockstep" }

// recorder wraps a system's workload and records the core of every
// Next call. With each core's op buffer cut to one op (see record),
// step draws exactly one op per scheduler pick, after the ceiling
// check, so the recorded cores are the step-order trace.
type recorder struct {
	Workload
	trace []int
}

func (r *recorder) Next(core int) Op {
	r.trace = append(r.trace, core)
	return r.Workload.Next(core)
}

// record installs a recorder in front of s's workload, which must not
// have been drawn from yet, and cuts every core's op buffer to one op:
// each refill is then one Next call, made by the step that runs it.
func record(s *System) *recorder {
	r := &recorder{Workload: s.stream}
	s.stream, s.fill = r, fillerOf(r)
	oneOpBuffers(s)
	return r
}

// tracedRun executes warmup+run on s recording the step-order trace.
func tracedRun(s *System, warmup int, quantum uint64, scan bool) (trace []int, r Results) {
	rec := record(s)
	if scan {
		s.warmupScan(warmup)
		r = s.runScan(quantum)
	} else {
		s.Warmup(warmup)
		r = s.Run(quantum)
	}
	return rec.trace, r
}

// TestSchedulerTieBreakPinned pins the tie-break contract on a
// workload where every pick is a tie: runUntil must step cores in
// strict round-robin order (lowest index first), exactly like the
// reference scan. Turning runUntil's strict < into <= hands ties to
// the highest index and fails this test.
func TestSchedulerTieBreakPinned(t *testing.T) {
	sys := New(smallCfg(), sharedL2(), lockstepWorkload{})
	sysTrace, _ := tracedRun(sys, 0, 8, false)

	ref := New(smallCfg(), sharedL2(), lockstepWorkload{})
	refTrace, _ := tracedRun(ref, 0, 8, true)

	if !reflect.DeepEqual(sysTrace, refTrace) {
		t.Fatalf("runUntil trace %v != reference scan trace %v", sysTrace, refTrace)
	}
	if len(sysTrace) != 32 {
		t.Fatalf("trace has %d steps, want 32 (8 instructions x 4 cores)", len(sysTrace))
	}
	for i, c := range sysTrace {
		if c != i%4 {
			t.Fatalf("step %d ran core %d, want strict round-robin (core %d): %v", i, c, i%4, sysTrace)
		}
	}
}

// TestLaggardMatchesScan: the tournament picks what the reference
// loop's linear scan (strict <, ties to the lowest index) picks, on
// every assignment of three clock values to the four cores, which
// covers every order and every pattern of ties.
func TestLaggardMatchesScan(t *testing.T) {
	s := New(smallCfg(), sharedL2(), lockstepWorkload{})
	for v := 0; v < 81; v++ {
		for c, x := 0, v; c < topo.NumCores; c, x = c+1, x/3 {
			s.cores[c].cycles = memsys.Cycle(x % 3)
		}
		pick := 0
		for c, cs := range s.cores {
			if cs.cycles < s.cores[pick].cycles {
				pick = c
			}
		}
		if got := s.laggard(); got != s.cores[pick] {
			t.Fatalf("clocks %d %d %d %d: laggard is core %d, the scan picks core %d",
				s.cores[0].cycles, s.cores[1].cycles, s.cores[2].cycles, s.cores[3].cycles, got.id, pick)
		}
	}
}

// diffWorkload is a seeded random stream mixing private and contended
// shared references, stores, instruction fetches and pure compute —
// every op class the scheduler can interleave. Deterministic per seed,
// so two instances with the same seed serve identical streams as long
// as both systems ask in the same core order (which is exactly what
// the differential test is proving).
type diffWorkload struct {
	r *rng.Source
}

func (w *diffWorkload) Name() string { return "sched-differential" }

func (w *diffWorkload) Next(core int) Op {
	op := Op{Compute: w.r.Intn(3)}
	switch w.r.Intn(8) {
	case 0: // pure compute
		op.Compute++
		op.NoMem = true
		return op
	case 1: // instruction fetch
		op.Addr = memsys.Addr(0x40000 + w.r.Intn(32)*64)
		op.Instr = true
		return op
	case 2, 3: // contended read-write shared
		op.Addr = memsys.Addr(0x90000 + w.r.Intn(16)*64)
	default: // private
		op.Addr = memsys.Addr(0x10000*(core+1) + w.r.Intn(128)*64)
	}
	op.Write = w.r.Hit(rng.ChanceOf(0.35))
	return op
}

// TestSeqVsHeapEquivalence is the randomized differential
// gate for the completion counter: for several seeds and every L2
// design family, runUntil and the reference scan (which sweeps every
// core for completion on every step) must produce identical step-order
// traces (warmup and measurement) and identical Results. (The
// heap-named tests keep the names they had when runUntil picked the
// laggard from a heap; they now compare runUntil with the reference
// scan.)
func TestSeqVsHeapEquivalence(t *testing.T) {
	designs := map[string]func() memsys.L2{
		"shared":      sharedL2,
		"private":     func() memsys.L2 { return l2.NewPrivate(l2.MESI, topo.Derive()) },
		"cmp-nurapid": func() memsys.L2 { return core.New(core.DefaultConfig()) },
	}
	for name, mk := range designs {
		for seed := uint64(1); seed <= 3; seed++ {
			sys := New(smallCfg(), mk(), &diffWorkload{r: rng.New(seed)})
			sysTrace, sysRes := tracedRun(sys, 300, 1500, false)

			ref := New(smallCfg(), mk(), &diffWorkload{r: rng.New(seed)})
			refTrace, refRes := tracedRun(ref, 300, 1500, true)

			if !reflect.DeepEqual(sysTrace, refTrace) {
				n := len(sysTrace)
				if len(refTrace) < n {
					n = len(refTrace)
				}
				div := n
				for i := 0; i < n; i++ {
					if sysTrace[i] != refTrace[i] {
						div = i
						break
					}
				}
				t.Fatalf("%s seed %d: step traces diverge at step %d (runUntil %d steps, reference %d steps)",
					name, seed, div, len(sysTrace), len(refTrace))
			}
			if !reflect.DeepEqual(sysRes, refRes) {
				t.Errorf("%s seed %d: results diverge:\nrunUntil:  %+v\nreference: %+v", name, seed, sysRes, refRes)
			}
		}
	}
}

// missStream makes every reference a fresh L1-busting miss, so each
// instruction costs hundreds of cycles and a short warmup consumes a
// precisely large number of cycles.
type missStream struct {
	n [8]uint64
}

func (w *missStream) Name() string { return "miss-stream" }
func (w *missStream) Next(core int) Op {
	w.n[core]++
	return Op{Addr: memsys.Addr(0x100000*uint64(core+1) + w.n[core]*4096)}
}

// TestExplicitCeilingIsPhaseRelative is the regression test for the
// cycle-ceiling anchoring bug: an earlier loop anchored an explicit
// MaxCycles at absolute cycle 0, so after a warmup that consumed more
// cycles than the budget, a healthy measurement run tripped the
// ceiling on its very first step. The budget must instead anchor at
// the Run phase's starting clock, and warmup must not consume it.
func TestExplicitCeilingIsPhaseRelative(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxCycles = memsys.CyclesOf(10_000)
	sys := New(cfg, sharedL2(), &missStream{})

	// 100 cold misses per core at ~360 cycles each: warmup consumes
	// several times MaxCycles. Under the old absolute anchoring the
	// following Run panicked immediately; it must complete.
	sys.Warmup(100)
	if clk := sys.maxCycle(); clk.Sub(0) <= cfg.MaxCycles {
		t.Fatalf("warmup consumed only %d cycles; the test needs more than MaxCycles=%d to bite",
			clk.Sub(0), cfg.MaxCycles)
	}
	r := sys.Run(5)
	if r.Instructions == 0 || r.Cycles <= 0 {
		t.Fatalf("post-warmup run under a phase-relative ceiling recorded nothing: %+v", r)
	}
	if r.Cycles > cfg.MaxCycles {
		t.Fatalf("run consumed %d cycles, above the %d budget — the ceiling should have fired", r.Cycles, cfg.MaxCycles)
	}

	// The budget still binds the measurement phase itself: a Run whose
	// quantum cannot fit must abort, and the reported limit must be
	// anchored at the phase start, not at cycle 0. (The warmup resets
	// the previous run's quantum snapshots.)
	sys.Warmup(10)
	start := sys.maxCycle()
	defer func() {
		lim, ok := recover().(*CycleLimitExceeded)
		if !ok {
			t.Fatal("oversized run under a tight ceiling did not abort")
		}
		if lim.Derived {
			t.Error("explicit MaxCycles reported as derived")
		}
		if lim.Limit != start.Add(cfg.MaxCycles) {
			t.Errorf("limit %d not anchored at phase start %d + budget %d", uint64(lim.Limit), uint64(start), cfg.MaxCycles)
		}
	}()
	sys.Run(1_000_000)
}

// TestCeilingTripIdenticalUnderHeap verifies the ceiling observation
// point (the picked core's pre-step clock) gives runUntil exactly the
// reference scan's abort: both loops must abort a run that overruns
// its MaxCycles with equal diagnostics — same clock, same limit, same
// per-core snapshot and bus backlog.
func TestCeilingTripIdenticalUnderHeap(t *testing.T) {
	mkOps := func() [][]Op {
		ops := make([][]Op, 4)
		for c := range ops {
			for i := 0; i < 20; i++ {
				ops[c] = append(ops[c], Op{Addr: memsys.Addr(0x10000*(c+1) + i*4096), Write: i%3 == 0})
			}
		}
		return ops
	}
	trip := func(scan bool) (lim *CycleLimitExceeded) {
		cfg := smallCfg()
		cfg.MaxCycles = memsys.CyclesOf(3000)
		sys := New(cfg, l2.NewPrivate(l2.MESI, topo.Derive()), newScripted(mkOps()))
		defer func() {
			var ok bool
			if lim, ok = recover().(*CycleLimitExceeded); !ok {
				t.Fatal("overrun did not hit the ceiling")
			}
		}()
		if scan {
			sys.runScan(1_000_000)
		} else {
			sys.Run(1_000_000)
		}
		return nil
	}
	sys, ref := trip(false), trip(true)
	if !reflect.DeepEqual(sys, ref) {
		t.Errorf("ceiling diagnostics diverge:\nrunUntil:  %+v\nreference: %+v", sys, ref)
	}
}

// TestRunZeroQuantumNeedsNoSteps pins the phase-start completion scan:
// a Run whose quantum is already satisfied must snapshot every core
// and execute zero scheduler steps, exactly like the historical
// done()-before-first-step loop.
func TestRunZeroQuantumNeedsNoSteps(t *testing.T) {
	sys := New(smallCfg(), sharedL2(), lockstepWorkload{})
	rec := record(sys)
	r := sys.Run(0)
	if steps := len(rec.trace); steps != 0 {
		t.Errorf("Run(0) executed %d steps, want 0", steps)
	}
	if len(r.Cores) != 4 || r.Instructions != 0 {
		t.Errorf("Run(0) results: %+v", r)
	}
	// An empty window reports IPC 0, not 0/0 = NaN.
	if r.Cycles != 0 || r.IPC != 0 {
		t.Errorf("Run(0): %d cycles, IPC %v; want 0 and 0", r.Cycles, r.IPC)
	}
	for c, cr := range r.Cores {
		if cr.IPC != 0 {
			t.Errorf("Run(0): core %d IPC %v, want 0", c, cr.IPC)
		}
	}
}

// TestHeapMatchesScanAfterReentry pins phase re-entry: a
// second Run on the same system (clocks mid-flight, completion flags
// left over from the previous phase) must still track the reference
// scan.
func TestHeapMatchesScanAfterReentry(t *testing.T) {
	sys := New(smallCfg(), sharedL2(), &diffWorkload{r: rng.New(99)})
	ref := New(smallCfg(), sharedL2(), &diffWorkload{r: rng.New(99)})

	sysRec, refRec := record(sys), record(ref)
	for i := 0; i < 3; i++ {
		// Each warmup resets the quantum baselines, so every Run is a
		// fresh phase entered with mid-flight clocks and whatever
		// completion state the previous phase left behind.
		sys.Warmup(100 * (i + 1))
		ref.warmupScan(100 * (i + 1))
		sr := sys.Run(400)
		rr := ref.runScan(400)
		if !reflect.DeepEqual(sr, rr) {
			t.Fatalf("run %d results diverge:\nrunUntil:  %+v\nreference: %+v", i, sr, rr)
		}
	}
	if !reflect.DeepEqual(sysRec.trace, refRec.trace) {
		t.Fatalf("re-entry traces diverge (runUntil %d steps, reference %d steps)", len(sysRec.trace), len(refRec.trace))
	}
}

// TestPhaseSequencesMatchScan drives runUntil and the reference scan
// through the phase orders a caller may use besides Warmup-then-Run: a
// Warmup straight after a Warmup (its target counts all instructions,
// not those past the last baseline), a Run straight after a Run (the
// first Run's quantum snapshot stands), and a Warmup after a Run whose
// target the cores have not yet reached. Every Results and the whole
// step-order trace must match.
func TestPhaseSequencesMatchScan(t *testing.T) {
	sys := New(smallCfg(), sharedL2(), &diffWorkload{r: rng.New(7)})
	ref := New(smallCfg(), sharedL2(), &diffWorkload{r: rng.New(7)})
	sysRec, refRec := record(sys), record(ref)
	for i, ph := range []struct {
		warmup bool
		n      int
	}{{true, 50}, {true, 300}, {false, 100}, {false, 400}, {true, 2000}, {false, 100}} {
		if ph.warmup {
			sys.Warmup(ph.n)
			ref.warmupScan(ph.n)
			continue
		}
		if sr, rr := sys.Run(uint64(ph.n)), ref.runScan(uint64(ph.n)); !reflect.DeepEqual(sr, rr) {
			t.Fatalf("phase %d results diverge:\nrunUntil:  %+v\nreference: %+v", i, sr, rr)
		}
	}
	if !reflect.DeepEqual(sysRec.trace, refRec.trace) {
		t.Fatalf("traces diverge (runUntil %d steps, reference %d steps)", len(sysRec.trace), len(refRec.trace))
	}
}
