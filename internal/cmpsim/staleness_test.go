package cmpsim

import (
	"testing"

	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/core"
	"cmpnurapid/internal/l2"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/rng"
	"cmpnurapid/internal/topo"
)

// The multi-level staleness property (§3.2): after any store by core A
// to block X, no other core's L1 may still hold a copy of X — write-
// back lines are exclusive (the first store's ownership request
// invalidated other L1s through inclusion), and MESIC C blocks write
// through with a BusUpg that drops the sharers' L1 copies while their
// L2 tags survive. A violation means a core could read a stale value.
//
// This is the failure mode the paper calls out: "If a writer writes to
// an L1 cache block in C state without writing to the L2 block, a
// reader reading the shared L2 copy may read the incorrect value."

// randomWorkload emits a mixed private/shared stream (in-package so
// the test can drive steps one at a time and inspect L1s between them).
type randomWorkload struct {
	r *rng.Source
}

func (w *randomWorkload) Name() string { return "stale-detector" }

func (w *randomWorkload) Next(coreID int) Op {
	op := Op{Compute: w.r.Intn(4)}
	switch w.r.Intn(4) {
	case 0: // private
		op.Addr = memsys.Addr(0x10000*(coreID+1) + w.r.Intn(64)*64)
	case 1: // read-only shared (reads only)
		op.Addr = memsys.Addr(0x80000 + w.r.Intn(24)*64)
		return op
	default: // read-write shared: the contended case
		op.Addr = memsys.Addr(0x90000 + w.r.Intn(12)*64)
	}
	op.Write = w.r.Hit(rng.ChanceOf(0.4))
	return op
}

// l1Holds reports whether core's L1 D- or I-cache holds any line of
// the L2 block containing addr.
func l1Holds(s *System, coreID int, addr memsys.Addr, l2Block memsys.Bytes) bool {
	base := addr.BlockAddr(l2Block)
	cs := s.cores[coreID]
	for off := memsys.Bytes(0); off < l2Block; off += s.cfg.L1Block {
		if cs.l1d.Probe(base+memsys.Addr(off)) != nil || cs.l1i.Probe(base+memsys.Addr(off)) != nil {
			return true
		}
	}
	return false
}

func stepOnce(s *System) (coreID int, op Op) {
	pick := 0
	for c, cs := range s.cores {
		if cs.cycles < s.cores[pick].cycles {
			pick = c
		}
	}
	// Mirror System.step but keep the op for inspection.
	op = s.stream.Next(pick)
	cs := s.cores[pick]
	if op.Compute > 0 {
		cs.cycles = cs.cycles.Add(memsys.CyclesOf(op.Compute))
		cs.instructions += uint64(op.Compute)
	}
	if !op.NoMem {
		lat := s.access(cs, op.Addr, op.Write, op.Instr)
		cs.cycles = cs.cycles.Add(lat)
		cs.instructions++
	}
	return pick, op
}

func runStaleDetector(t *testing.T, mk func() memsys.L2, steps int, l2Block memsys.Bytes) {
	t.Helper()
	cfg := Config{L1Bytes: 1 << 10, L1Ways: 2, L1Block: 64, L1Latency: 3}
	sys := New(cfg, mk(), &randomWorkload{r: rng.New(99)})
	for i := 0; i < steps; i++ {
		coreID, op := stepOnce(sys)
		if op.NoMem || !op.Write {
			continue
		}
		for o := 0; o < topo.NumCores; o++ {
			if o == coreID {
				continue
			}
			if l1Holds(sys, o, op.Addr, l2Block) {
				t.Fatalf("step %d: core %d stores to %#x but core %d's L1 still holds it (stale copy)",
					i, coreID, op.Addr, o)
			}
		}
	}
}

func TestNoStaleL1CopiesCMPNuRAPID(t *testing.T) {
	runStaleDetector(t, func() memsys.L2 {
		nucfg := core.DefaultConfig()
		return core.New(nucfg)
	}, 40000, 128)
}

func TestNoStaleL1CopiesCMPNuRAPIDWithMigration(t *testing.T) {
	runStaleDetector(t, func() memsys.L2 {
		nucfg := core.DefaultConfig()
		nucfg.CMigrationThreshold = 3
		return core.New(nucfg)
	}, 40000, 128)
}

func TestNoStaleL1CopiesPrivate(t *testing.T) {
	runStaleDetector(t, func() memsys.L2 { return l2.NewPrivate(l2.MESI, topo.Derive()) }, 40000, 128)
}

func TestNoStaleL1CopiesShared(t *testing.T) {
	runStaleDetector(t, func() memsys.L2 {
		return l2.NewShared("uniform-shared", 64<<10, 4, 128, 59, 300)
	}, 40000, 128)
}

func TestNoStaleL1CopiesPrivateUpdate(t *testing.T) {
	runStaleDetector(t, func() memsys.L2 {
		return l2.NewPrivateWith(l2.Update, 4<<10, 4, 64, 10,
			bus.Config{Latency: 32, SlotCycles: 4}, 300)
	}, 40000, 64)
}
