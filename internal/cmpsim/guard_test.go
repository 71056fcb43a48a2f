package cmpsim

import (
	"strings"
	"testing"

	"cmpnurapid/internal/l2"
	"cmpnurapid/internal/memsys"
)

// badAfter serves script's ops until it has served healthy of them in
// total, across all cores, then bad forever.
type badAfter struct {
	script  *scriptedWorkload
	healthy int
	served  int
	bad     Op
}

func (z *badAfter) Name() string { return "bad-after" }
func (z *badAfter) Next(core int) Op {
	if z.served < z.healthy {
		z.served++
		return z.script.Next(core)
	}
	return z.bad
}

// refusedAt runs healthy ops of every kind (compute 0 and 1, loads and
// stores), then bad, and checks that step refuses the first bad op, at
// once, with a cmpsim: message.
func refusedAt(t *testing.T, bad Op) {
	t.Helper()
	const healthy = 9
	ops := make([][]Op, 4)
	for c := range ops {
		for i := 0; i < healthy; i++ {
			ops[c] = append(ops[c], Op{Compute: i % 2, Addr: memsys.Addr(0x10000*(c+1) + i*64), Write: i%3 == 0})
		}
	}
	sys := New(smallCfg(), sharedL2(), &badAfter{script: newScripted(ops), healthy: healthy, bad: bad})
	rec := record(sys)
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "cmpsim: ") {
			t.Fatalf("op %+v panicked with %v, want a cmpsim: message", bad, r)
		}
		if steps := len(rec.trace); steps != healthy+1 {
			t.Errorf("panicked on step %d, want the first bad op, step %d", steps, healthy+1)
		}
	}()
	sys.Run(1_000_000)
}

// TestZeroWorkOpPanics: step refuses the first op that does no work
// (NoMem with no compute, which retires nothing and would leave the
// clock where it is), so every step advances a clock and the cycle
// ceiling bounds every phase.
func TestZeroWorkOpPanics(t *testing.T) { refusedAt(t, Op{NoMem: true}) }

// TestNegativeComputeRefused: step refuses an op with a negative
// compute, a memory op or not, rather than simulate it as zero.
func TestNegativeComputeRefused(t *testing.T) {
	refusedAt(t, Op{Compute: -1, Addr: 0x2000})
	refusedAt(t, Op{Compute: -1, NoMem: true})
}

// TestStallSnapshotRecordsLastReference: one real store on core 0,
// then compute-only ops, under a small MaxCycles: the ceiling
// diagnostic must pin core 0's state to that reference and report no
// reference for the cores that never made one.
func TestStallSnapshotRecordsLastReference(t *testing.T) {
	ops := make([][]Op, 4)
	ops[0] = []Op{{Addr: 0x2000, Write: true}}
	cfg := smallCfg()
	cfg.MaxCycles = memsys.CyclesOf(100)
	sys := New(cfg, sharedL2(), newScripted(ops))
	defer func() {
		lim, ok := recover().(*CycleLimitExceeded)
		if !ok {
			t.Fatal("expected a CycleLimitExceeded")
		}
		if lim.Design != "uniform-shared" || lim.Workload != "scripted" {
			t.Errorf("diagnostic names %s/%s", lim.Design, lim.Workload)
		}
		c0 := lim.Cores[0]
		if !c0.OutstandingMiss || c0.Addr != 0x2000 || !c0.Write {
			t.Errorf("core 0 snapshot %+v does not record the store to 0x2000", c0)
		}
		if c0.LineState != "resident" {
			t.Errorf("core 0 line state %q, want resident (shared L2 probe)", c0.LineState)
		}
		for _, cs := range lim.Cores[1:] {
			if cs.OutstandingMiss {
				t.Errorf("core %d reports a memory reference it never made", cs.Core)
			}
		}
	}()
	sys.Run(1_000_000)
}

func TestDerivedCycleCeiling(t *testing.T) {
	// A pathologically slow memory makes every L2 miss cost tens of
	// millions of cycles: the ceiling derived from the instruction
	// budget must abort the run even though instructions keep retiring.
	slow := l2.NewShared("slow-memory", 16<<10, 4, 64, 59, 50_000_000)
	ops := make([][]Op, 4)
	for c := range ops {
		for i := 0; i < 100; i++ {
			ops[c] = append(ops[c], Op{Addr: memsys.Addr(0x10000*(c+1) + i*64)})
		}
	}
	sys := New(smallCfg(), slow, newScripted(ops))
	defer func() {
		lim, ok := recover().(*CycleLimitExceeded)
		if !ok {
			t.Fatal("runaway clock did not hit the derived ceiling")
		}
		if !lim.Derived {
			t.Error("ceiling should be reported as derived from the instruction budget")
		}
		if lim.Now <= lim.Limit {
			t.Errorf("abort clock %d not past limit %d", uint64(lim.Now), uint64(lim.Limit))
		}
	}()
	sys.Run(100)
}

func TestValidateRejectsNegativeGuards(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxCycles = memsys.CyclesOf(-1)
	defer func() {
		if recover() == nil {
			t.Error("negative MaxCycles accepted by Validate")
		}
	}()
	cfg.Validate()
}

// TestValidateL1Boundaries: each L1 geometry and latency field is
// refused at zero and at -1 by the positivity check itself, with its
// message (not by a divide or a cache: panic further in), and accepted
// at its smallest buildable value. For L1Bytes that is one set of
// smallCfg's two 64 B ways, or one byte with one 1 B way; every other
// field builds at one.
func TestValidateL1Boundaries(t *testing.T) {
	const want = "cmpsim: L1 geometry and latency must be positive"
	for name, f := range map[string]struct {
		set func(*Config, int)
		min int
	}{
		"L1Bytes":   {func(c *Config, v int) { c.L1Bytes = memsys.Bytes(v) }, 128},
		"L1Ways":    {func(c *Config, v int) { c.L1Ways = v }, 1},
		"L1Block":   {func(c *Config, v int) { c.L1Block = memsys.Bytes(v) }, 1},
		"L1Latency": {func(c *Config, v int) { c.L1Latency = memsys.CyclesOf(v) }, 1},
	} {
		for _, v := range []int{-1, 0, f.min} {
			cfg := smallCfg()
			f.set(&cfg, v)
			func() {
				defer func() {
					r := recover()
					switch {
					case v == f.min && r != nil:
						t.Errorf("%s = %d: rejected with %v, want accepted", name, v, r)
					case v != f.min && r != want:
						t.Errorf("%s = %d: panicked with %v, want %q", name, v, r, want)
					}
				}()
				cfg.Validate()
			}()
			if v == f.min {
				New(cfg, sharedL2(), lockstepWorkload{})
			}
		}
	}
	// With one-byte blocks and one way, one byte is a whole L1: the
	// positivity check must not refuse L1Bytes = 1 where it builds.
	tiny := smallCfg()
	tiny.L1Bytes, tiny.L1Ways, tiny.L1Block = 1, 1, 1
	New(tiny, sharedL2(), lockstepWorkload{})
}

// TestValidateRejectsUnbuildableL1: Validate itself must reject every
// L1 shape cache.NewArray cannot build (a set count or block size that
// is not a power of two), not leave New to panic inside the cache.
func TestValidateRejectsUnbuildableL1(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"L1Bytes=1":    func(c *Config) { c.L1Bytes = 1 },
		"L1Bytes=1000": func(c *Config) { c.L1Bytes = 1000 },
		"L1Ways=3":     func(c *Config) { c.L1Ways = 3 },
		"L1Block=96":   func(c *Config) { c.L1Block = 96 },
	} {
		cfg := smallCfg()
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
