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

// TestCycleCeilingAborts: the hard MaxCycles ceiling fires with a
// structured CycleLimitExceeded even on a healthy (retiring) workload,
// and the diagnostic is fully populated: every core's state, the line
// state behind each core's last reference on the private (bus) design,
// and the bus backlog where the design has a bus (-1 otherwise).
func TestCycleCeilingAborts(t *testing.T) {
	for _, tc := range []struct {
		design memsys.L2
		hasBus bool
	}{{l2.NewPrivate(l2.MESI), true}, {l2.NewSNUCA(l2.Static), false}} {
		design, hasBus := tc.design, tc.hasBus
		t.Run(design.Name(), func(t *testing.T) {
			cfg := cmpsim.DefaultConfig()
			cfg.MaxCycles = memsys.CyclesOf(1000)
			sys := cmpsim.New(cfg, design, workload.New(workload.Hammer(3)))
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
				if lim.Design != design.Name() || lim.Workload != "adv-hammer" {
					t.Errorf("diagnostic names %s/%s", lim.Design, lim.Workload)
				}
				if len(lim.Cores) != topo.NumCores {
					t.Errorf("snapshot covers %d cores", len(lim.Cores))
				}
				for _, cs := range lim.Cores {
					if !cs.OutstandingMiss {
						t.Errorf("core %d made no memory reference in a hammer run", cs.Core)
					}
					if hasBus && cs.LineState == "?" {
						t.Errorf("core %d: %s should report a line state, got %q", cs.Core, design.Name(), cs.LineState)
					}
				}
				if hasBus && lim.BusBacklog < 0 {
					t.Errorf("%s has a bus; backlog %d should be reported", design.Name(), lim.BusBacklog)
				}
				if !hasBus && lim.BusBacklog != -1 {
					t.Errorf("%s has no bus; backlog %d, want -1", design.Name(), lim.BusBacklog)
				}
				if !strings.HasPrefix(lim.Error(), "simguard: ") {
					t.Errorf("diagnostic prefix: %q", lim.Error())
				}
			}()
			sys.Run(10_000_000)
		})
	}
}
