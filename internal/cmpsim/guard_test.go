package cmpsim

import (
	"testing"

	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/simguard"
)

// livelockStream is the minimal livelock: zero-work ops forever. No
// instruction ever retires and no clock ever advances, so only the
// watchdog's step counter can catch it.
type livelockStream struct{}

func (livelockStream) Next(core int) Op { return Op{NoMem: true} }
func (livelockStream) Name() string     { return "livelock-stub" }

func TestWatchdogTripsOnZeroWorkStream(t *testing.T) {
	cfg := smallCfg()
	cfg.StallWindow = memsys.CyclesOf(256)
	sys := New(cfg, sharedL2(), livelockStream{})
	defer func() {
		stall, ok := recover().(*simguard.ProgressStall)
		if !ok {
			t.Fatal("zero-work stream did not trip the watchdog")
		}
		if stall.Steps == 0 || stall.Steps > 512 {
			t.Errorf("tripped after %d steps, want within ~256", stall.Steps)
		}
		if stall.Workload != "livelock-stub" {
			t.Errorf("stall names workload %q", stall.Workload)
		}
		for _, cs := range stall.Cores {
			if cs.OutstandingMiss {
				t.Errorf("core %d reports a memory reference it never made", cs.Core)
			}
		}
	}()
	sys.Run(10)
}

func TestStallSnapshotRecordsLastReference(t *testing.T) {
	// One real store on core 0, then livelock: the stall diagnostic
	// must pin core 0's state to that reference.
	ops := make([][]Op, 4)
	ops[0] = []Op{{Addr: 0x2000, Write: true}}
	w := &partialLivelock{script: newScripted(ops), healthy: 1}
	cfg := smallCfg()
	cfg.StallWindow = memsys.CyclesOf(256)
	sys := New(cfg, sharedL2(), w)
	defer func() {
		stall, ok := recover().(*simguard.ProgressStall)
		if !ok {
			t.Fatal("expected a ProgressStall")
		}
		c0 := stall.Cores[0]
		if !c0.OutstandingMiss || c0.Addr != 0x2000 || !c0.Write {
			t.Errorf("core 0 snapshot %+v does not record the store to 0x2000", c0)
		}
		if c0.LineState != "resident" {
			t.Errorf("core 0 line state %q, want resident (shared L2 probe)", c0.LineState)
		}
	}()
	sys.Run(10)
}

// partialLivelock serves a few scripted ops per core, then livelocks.
type partialLivelock struct {
	script  *scriptedWorkload
	healthy int
	served  [4]int
}

func (p *partialLivelock) Name() string { return "partial-livelock" }
func (p *partialLivelock) Next(core int) Op {
	if p.served[core] < p.healthy {
		p.served[core]++
		return p.script.Next(core)
	}
	return Op{NoMem: true}
}

func TestDerivedCycleCeiling(t *testing.T) {
	// A pathological latency injection makes every access cost tens of
	// millions of cycles: the ceiling derived from the instruction
	// budget must abort the run even though instructions keep retiring
	// (so the watchdog never fires).
	cfg := smallCfg()
	cfg.ExtraLatency = func(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Cycles {
		return memsys.CyclesOf(50_000_000)
	}
	ops := make([][]Op, 4)
	for c := range ops {
		for i := 0; i < 100; i++ {
			ops[c] = append(ops[c], Op{Addr: memsys.Addr(0x10000*(c+1) + i*64)})
		}
	}
	sys := New(cfg, sharedL2(), newScripted(ops))
	defer func() {
		lim, ok := recover().(*simguard.CycleLimitExceeded)
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

func TestExtraLatencySlowsTheRun(t *testing.T) {
	run := func(extra func(memsys.Cycle, int, memsys.Addr, bool) memsys.Cycles) memsys.Cycles {
		ops := make([][]Op, 4)
		for c := range ops {
			for i := 0; i < 32; i++ {
				ops[c] = append(ops[c], Op{Addr: memsys.Addr(0x10000*(c+1) + i*4096)})
			}
		}
		cfg := smallCfg()
		cfg.ExtraLatency = extra
		sys := New(cfg, sharedL2(), newScripted(ops))
		return sys.Run(32).Cycles
	}
	plain := run(nil)
	noisy := run(func(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Cycles {
		return memsys.CyclesOf(100)
	})
	if noisy <= plain {
		t.Errorf("extra latency did not slow the run: %d vs %d", noisy, plain)
	}
	zero := run(func(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Cycles {
		return 0
	})
	if zero != plain {
		t.Errorf("zero extra latency perturbs the run: %d vs %d", zero, plain)
	}
}

func TestValidateRejectsNegativeGuards(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"MaxCycles":   func(c *Config) { c.MaxCycles = memsys.CyclesOf(-1) },
		"StallWindow": func(c *Config) { c.StallWindow = memsys.CyclesOf(-1) },
	} {
		cfg := smallCfg()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("negative %s accepted by Validate", name)
				}
			}()
			cfg.Validate()
		}()
	}
}

// TestValidateL1Boundaries: each L1 geometry and latency field is
// rejected at zero and accepted at its smallest buildable value. For
// L1Bytes that is one set of smallCfg's two 64 B ways; every other
// field builds at one.
func TestValidateL1Boundaries(t *testing.T) {
	for name, f := range map[string]struct {
		set func(*Config, int)
		min int
	}{
		"L1Bytes":   {func(c *Config, v int) { c.L1Bytes = memsys.Bytes(v) }, 128},
		"L1Ways":    {func(c *Config, v int) { c.L1Ways = v }, 1},
		"L1Block":   {func(c *Config, v int) { c.L1Block = memsys.Bytes(v) }, 1},
		"L1Latency": {func(c *Config, v int) { c.L1Latency = memsys.CyclesOf(v) }, 1},
	} {
		for _, v := range []int{0, f.min} {
			cfg := smallCfg()
			f.set(&cfg, v)
			func() {
				defer func() {
					if rejected := recover() != nil; rejected != (v == 0) {
						t.Errorf("%s = %d: rejected %v, want %v", name, v, rejected, v == 0)
					}
				}()
				cfg.Validate()
			}()
			if v != 0 {
				New(cfg, sharedL2(), lockstepWorkload{})
			}
		}
	}
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
