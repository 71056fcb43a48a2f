// Chaos sweep (docs/ROBUSTNESS.md): every fault injector crossed with
// every adversarial workload on every bus-bearing and shared design,
// asserting that injected timing perturbations never change
// *functional* behaviour — invariants (including SWMR) hold, every
// core completes its quantum, and the results stay sane. The file
// lives in an external test package so it can drive cmpsim and the
// workload catalog without an import cycle.
package simguard_test

import (
	"fmt"
	"strings"
	"testing"

	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/core"
	"cmpnurapid/internal/l2"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/simguard"
	"cmpnurapid/internal/topo"
	"cmpnurapid/internal/workload"
)

// invariantChecker is implemented by every design the sweep covers.
type invariantChecker interface {
	CheckInvariants()
}

// chaosDesigns builds one fresh instance of each swept design with the
// injector's bus hook wired in (designs without a bus ignore it).
func chaosDesigns(inj simguard.Injector) []memsys.L2 {
	lat := topo.Derive()
	busCfg := bus.Config{Latency: lat.Bus, SlotCycles: 4, GrantJitter: inj.Bus}
	nur := core.DefaultConfig()
	nur.Bus.GrantJitter = inj.Bus
	return []memsys.L2{
		l2.NewPrivateWith(l2.MESI, topo.PrivateBytes, topo.PrivateAssoc, topo.BlockBytes,
			lat.PrivateTotal, busCfg, 300),
		l2.NewPrivateWith(l2.Update, topo.PrivateBytes, topo.PrivateAssoc, topo.BlockBytes,
			lat.PrivateTotal, busCfg, 300),
		l2.NewSNUCA(l2.Static),
		core.New(nur),
	}
}

// TestChaosSweep is the fault-injection matrix: injector × adversarial
// workload × design. Fault injection perturbs only timing, so every
// run must still complete its quantum with invariants clean.
func TestChaosSweep(t *testing.T) {
	const seed = 0xC0FFEE
	const quantum = 4000
	for _, inj := range simguard.Injectors(seed) {
		for wi, w := range workload.Adversarial(seed) {
			for _, design := range chaosDesigns(inj) {
				name := fmt.Sprintf("%s/%s/%s", inj.Name, w.Name(), design.Name())
				t.Run(name, func(t *testing.T) {
					// Fresh workload per system: adversarial streams are
					// stateful and every design must see its own copy.
					fresh := workload.Adversarial(seed)[wi]
					cfg := cmpsim.DefaultConfig()
					cfg.ExtraLatency = inj.Latency
					sys := cmpsim.New(cfg, design, fresh)
					sys.Warmup(quantum / 2)
					res := sys.Run(quantum)

					if chk, ok := design.(invariantChecker); ok {
						chk.CheckInvariants()
					}
					if len(res.Cores) != topo.NumCores {
						t.Fatalf("results cover %d cores", len(res.Cores))
					}
					for c, cr := range res.Cores {
						if cr.Instructions < quantum {
							t.Errorf("core %d retired %d instructions, want >= %d", c, cr.Instructions, quantum)
						}
						if cr.Cycles <= 0 {
							t.Errorf("core %d has non-positive cycle count %d", c, cr.Cycles)
						}
					}
					if res.IPC <= 0 {
						t.Errorf("aggregate IPC %v not positive", res.IPC)
					}
					if res.Cycles <= 0 {
						t.Errorf("makespan %d not positive", res.Cycles)
					}
				})
			}
		}
	}
}

// TestControlInjectorIsBitIdentical: the "none" injector must produce
// exactly the results of a run with no hooks installed at all — the
// guarantee that keeps docs/golden byte-identical on fault-free runs.
func TestControlInjectorIsBitIdentical(t *testing.T) {
	const quantum = 4000
	run := func(inj simguard.Injector) cmpsim.Results {
		cfg := cmpsim.DefaultConfig()
		cfg.ExtraLatency = inj.Latency
		sys := cmpsim.New(cfg, chaosDesigns(inj)[0], workload.New(workload.Hammer(5)))
		sys.Warmup(quantum / 2)
		return sys.Run(quantum)
	}
	plain := run(simguard.Injector{Name: "no-hooks"})
	control := run(simguard.Injectors(77)[0])
	if plain.Cycles != control.Cycles || plain.Instructions != control.Instructions || plain.IPC != control.IPC {
		t.Errorf("control injector perturbs results: %+v vs %+v", control, plain)
	}
	for c := range plain.Cores {
		if plain.Cores[c] != control.Cores[c] {
			t.Errorf("core %d diverges under control injector", c)
		}
	}
}

// TestWatchdogCatchesLivelockMutant feeds the seeded livelock mutant —
// healthy ops, then zero-work ops forever — into a full system and
// requires the forward-progress watchdog to abort with a structured
// ProgressStall within the configured window. The bound on Steps below
// doubles as the detection-window gate for the event-driven scheduler
// loop: if skip-ahead ever widened the window, the trip would land
// outside ~window steps and this test would fail (cmpsim's
// TestWatchdogTripIdenticalUnderHeap additionally pins the trip point
// to the pre-heap scan loop exactly).
func TestWatchdogCatchesLivelockMutant(t *testing.T) {
	const window = 4096
	mut := &workload.LivelockMutant{Inner: workload.New(workload.Hammer(7)), After: 200}
	cfg := cmpsim.DefaultConfig()
	cfg.StallWindow = memsys.CyclesOf(window)
	sys := cmpsim.New(cfg, l2.NewPrivate(l2.MESI), mut)
	defer func() {
		stall, ok := recover().(*simguard.ProgressStall)
		if !ok {
			t.Fatal("livelock mutant did not trigger a ProgressStall")
		}
		if stall.Window != window {
			t.Errorf("stall window %d, want %d", stall.Window, window)
		}
		if stall.Steps == 0 || stall.Steps > 2*window {
			t.Errorf("watchdog fired after %d steps, want within ~%d", stall.Steps, window)
		}
		if stall.Design != "private" {
			t.Errorf("stall design %q", stall.Design)
		}
		if !strings.Contains(stall.Workload, "livelock-mutant") {
			t.Errorf("stall workload %q does not name the mutant", stall.Workload)
		}
		if len(stall.Cores) != topo.NumCores {
			t.Errorf("stall snapshot covers %d cores", len(stall.Cores))
		}
		for _, cs := range stall.Cores {
			if cs.OutstandingMiss && cs.LineState == "?" {
				t.Errorf("core %d: private design should report a line state, got %q", cs.Core, cs.LineState)
			}
		}
		if stall.BusBacklog < 0 {
			t.Error("private design has a bus; backlog should be reported")
		}
		if !strings.HasPrefix(stall.Error(), "simguard: ") {
			t.Errorf("diagnostic prefix: %q", stall.Error())
		}
	}()
	sys.Run(1_000_000)
}

// TestCycleCeilingAborts: the hard MaxCycles ceiling fires with a
// structured CycleLimitExceeded even on a healthy (retiring) workload.
func TestCycleCeilingAborts(t *testing.T) {
	cfg := cmpsim.DefaultConfig()
	cfg.MaxCycles = memsys.CyclesOf(1000)
	sys := cmpsim.New(cfg, l2.NewPrivate(l2.MESI), workload.New(workload.Hammer(3)))
	defer func() {
		lim, ok := recover().(*simguard.CycleLimitExceeded)
		if !ok {
			t.Fatal("run past MaxCycles did not abort with CycleLimitExceeded")
		}
		if lim.Derived {
			t.Error("explicit MaxCycles reported as derived")
		}
		if uint64(lim.Limit) != 1000 {
			t.Errorf("limit %d, want 1000", uint64(lim.Limit))
		}
		if lim.Now <= lim.Limit {
			t.Errorf("abort at clock %d not past limit %d", uint64(lim.Now), uint64(lim.Limit))
		}
	}()
	sys.Run(10_000_000)
}
