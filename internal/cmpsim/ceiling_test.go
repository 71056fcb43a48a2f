// Cycle-ceiling test. It lives in an external test package so it can
// drive the workload catalog, which imports cmpsim, without an import
// cycle.
package cmpsim_test

import (
	"strings"
	"testing"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/l2"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
	"cmpnurapid/internal/workload"
)

// TestCycleCeilingAborts: the hard MaxCycles ceiling fires with a
// structured CycleLimitExceeded even on a healthy (retiring) workload,
// and the diagnostic is fully populated: every core's state, the line
// state behind each core's last reference on the private (bus) design,
// and the bus backlog where the design has a bus (-1 otherwise).
func TestCycleCeilingAborts(t *testing.T) {
	for _, tc := range []struct {
		design memsys.L2
		hasBus bool
	}{{l2.NewPrivate(l2.MESI, topo.Derive()), true}, {l2.NewSNUCA(l2.Static, topo.Derive()), false}} {
		design, hasBus := tc.design, tc.hasBus
		t.Run(design.Name(), func(t *testing.T) {
			cfg := cmpsim.DefaultConfig()
			cfg.MaxCycles = memsys.CyclesOf(1000)
			sys := cmpsim.New(cfg, design, workload.New(workload.Hammer(3)))
			defer func() {
				lim, ok := recover().(*cmpsim.CycleLimitExceeded)
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
				if !strings.HasPrefix(lim.Error(), "cmpsim: ") {
					t.Errorf("diagnostic prefix: %q", lim.Error())
				}
			}()
			sys.Run(10_000_000)
		})
	}
}
