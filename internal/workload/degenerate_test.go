package workload

import (
	"testing"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/core"
	"cmpnurapid/internal/l2"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
)

// Degenerate-workload tests: the boundary cases a simulator calibrated
// on multi-megabyte commercial footprints never sees in normal runs —
// one thread, no instruction fetches, purely read-only sharing, a
// footprint smaller than one cache line. Each must simulate to
// completion (no stall, no ceiling) with invariants clean on a
// private, a MESIC, and a banked-shared design.

// degenerateDesigns builds fresh instances of the invariant-checked
// design trio the degenerate runs cover.
func degenerateDesigns() []memsys.L2 {
	return []memsys.L2{l2.NewPrivate(l2.MESI, topo.Derive()), core.New(core.DefaultConfig()), l2.NewSNUCA(l2.Static, topo.Derive())}
}

// runDegenerate simulates w on every design, requiring completion and
// clean invariants.
func runDegenerate(t *testing.T, w func() cmpsim.Workload) {
	t.Helper()
	const quantum = 3000
	for _, design := range degenerateDesigns() {
		sys := cmpsim.New(cmpsim.DefaultConfig(), design, w())
		sys.Warmup(quantum / 2)
		res := sys.Run(quantum)
		if chk, ok := design.(interface{ CheckInvariants() }); ok {
			chk.CheckInvariants()
		}
		for c, cr := range res.Cores {
			if cr.Instructions < quantum {
				t.Errorf("%s: core %d retired %d, want >= %d", design.Name(), c, cr.Instructions, quantum)
			}
		}
		if res.IPC <= 0 {
			t.Errorf("%s: IPC %v not positive", design.Name(), res.IPC)
		}
	}
}

func TestDegenerateSingleThread(t *testing.T) {
	runDegenerate(t, func() cmpsim.Workload {
		return SingleThreaded{Inner: New(OLTP(11))}
	})
}

func TestDegenerateZeroInstructionFetch(t *testing.T) {
	p := OLTP(12)
	p.Name = "no-ifetch"
	p.InstrFrac = 0
	p.CodeBlocks = 0
	runDegenerate(t, func() cmpsim.Workload { return New(p) })
}

func TestDegenerateAllReadOnlyShared(t *testing.T) {
	p := Profile{
		Name:     "all-ros",
		ROFrac:   1,
		ROBlocks: blocksForMB(1), ROTheta: 0.8,
		ComputeMin: 1, ComputeMax: 3,
		Seed: 13,
	}
	runDegenerate(t, func() cmpsim.Workload { return New(p) })
}

func TestDegenerateSubCacheLineFootprint(t *testing.T) {
	// Every footprint is zero blocks; the max1 clamp leaves each
	// region one 128 B block — the entire workload touches less data
	// than a single L2 line per region.
	p := Profile{
		Name:      "sub-line",
		InstrFrac: 0.2,
		ROFrac:    0.3, RWFrac: 0.3,
		RWModifyFrac: 0.3, RWWriteFrac: 0.2, PrivateWriteFrac: 0.5,
		ComputeMin: 1, ComputeMax: 2,
		Seed: 14,
	}
	runDegenerate(t, func() cmpsim.Workload { return New(p) })
}

func TestAdversarialCatalog(t *testing.T) {
	cat := Adversarial(21)
	want := []string{"adv-hammer", "adv-all-shared", "adv-max-threads",
		"adv-zero-footprint", "adv-hammer-1thread"}
	if len(cat) != len(want) {
		t.Fatalf("catalog has %d workloads, want %d", len(cat), len(want))
	}
	for i, w := range cat {
		if w.Name() != want[i] {
			t.Errorf("catalog[%d] = %q, want %q", i, w.Name(), want[i])
		}
	}
}

func TestHammerUsesSingleAddress(t *testing.T) {
	g := New(Hammer(5))
	var addr memsys.Addr
	seen := false
	for c := 0; c < topo.NumCores; c++ {
		for i := 0; i < 200; i++ {
			op := g.Next(c)
			if op.NoMem {
				t.Fatal("hammer emitted a no-memory op")
			}
			if !seen {
				addr, seen = op.Addr, true
			}
			if op.Addr != addr {
				t.Fatalf("hammer touched %#x and %#x; want one address", op.Addr, addr)
			}
		}
	}
	if addr < RWBase || addr >= PrivateBase {
		t.Errorf("hammer address %#x outside the RW shared region", addr)
	}
}

func TestZeroFootprintTouchesNoMemory(t *testing.T) {
	w := ZeroFootprint{}
	for i := 0; i < 100; i++ {
		op := w.Next(i % topo.NumCores)
		if !op.NoMem || op.Compute != 1 {
			t.Fatalf("zero-footprint op %+v, want pure single-instruction compute", op)
		}
	}
}

func TestSingleThreadedIdlesOtherCores(t *testing.T) {
	w := SingleThreaded{Inner: New(Hammer(6))}
	if op := w.Next(0); op.NoMem {
		t.Error("core 0 should run the inner workload")
	}
	for c := 1; c < topo.NumCores; c++ {
		op := w.Next(c)
		if !op.NoMem || op.Compute != 1 {
			t.Errorf("core %d op %+v, want idle compute", c, op)
		}
	}
}
