// Package simguard holds the chaos sweep (docs/ROBUSTNESS.md): every
// adversarial workload on every bus-bearing and shared design, run
// fault-free and under seeded L2 latency noise, asserting that the
// simulator's functional behaviour holds — invariants (including SWMR)
// hold, every core completes its quantum, and the results stay sane.
// The noise is a test-side wrapper around the design, so production
// code carries no injection hook. The package has no non-test code; it
// lives apart from cmpsim so it can drive the workload catalog, which
// imports cmpsim, without an import cycle.
package simguard_test

import (
	"fmt"
	"testing"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/core"
	"cmpnurapid/internal/l2"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/rng"
	"cmpnurapid/internal/topo"
	"cmpnurapid/internal/workload"
)

// invariantChecker is implemented by every design the sweep covers.
type invariantChecker interface {
	CheckInvariants()
}

// sweptDesigns builds one fresh instance of each swept design.
func sweptDesigns() []memsys.L2 {
	return []memsys.L2{
		l2.NewPrivate(l2.MESI, topo.Derive()),
		l2.NewPrivate(l2.Update, topo.Derive()),
		l2.NewSNUCA(l2.Static, topo.Derive()),
		core.New(core.DefaultConfig()),
	}
}

// maxNoise bounds the latency-noise row's per-access delay in cycles.
const maxNoise = 64

// noisyL2 adds a uniform [0, maxNoise] cycle delay to every L2 access a
// core observes (miss handling, queueing variation, DVFS wobble —
// anything that stretches an access without changing what it does).
// It forwards the optional interfaces cmpsim.New probes for, so the
// wrapped design runs under the same L1 management as the bare one; a
// design without C blocks reports no communication either way.
type noisyL2 struct {
	memsys.L2
	src *rng.Source
}

func (n *noisyL2) Access(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Result {
	res := n.L2.Access(now, core, addr, write)
	res.Latency += memsys.CyclesOf(n.src.Intn(maxNoise + 1))
	return res
}

func (n *noisyL2) SetL1Invalidate(fn func(core int, addr memsys.Addr)) {
	if inv, ok := n.L2.(memsys.L1Invalidator); ok {
		inv.SetL1Invalidate(fn)
	}
}

func (n *noisyL2) IsCommunication(core int, addr memsys.Addr) bool {
	cp, ok := n.L2.(cmpsim.CommunicationProber)
	return ok && cp.IsCommunication(core, addr)
}

// noisyCoherentL2 is noisyL2 around a design that keeps the L1s
// coherent itself.
type noisyCoherentL2 struct{ *noisyL2 }

func (noisyCoherentL2) MaintainsL1Coherence() {}

// withNoise wraps design so every access draws its delay from src.
func withNoise(design memsys.L2, src *rng.Source) memsys.L2 {
	n := &noisyL2{L2: design, src: src}
	if _, ok := design.(memsys.L1Coherent); ok {
		return noisyCoherentL2{n}
	}
	return n
}

// TestChaosSweep is the robustness matrix: perturbation × adversarial
// workload × design. Latency noise perturbs only timing, so every run
// must still complete its quantum with invariants clean.
func TestChaosSweep(t *testing.T) {
	const seed = 0xC0FFEE
	const quantum = 4000
	for _, row := range []struct {
		name  string
		noise *rng.Source // nil: fault-free
	}{
		{"none", nil},
		// One stream for the whole row, drawn in simulation order, so
		// every run reproduces bit-identically from the seed.
		{"latency-noise", rng.New(seed ^ 0x1a7e_0c15)},
	} {
		for wi, w := range workload.Adversarial(seed) {
			for _, design := range sweptDesigns() {
				name := fmt.Sprintf("%s/%s/%s", row.name, w.Name(), design.Name())
				t.Run(name, func(t *testing.T) {
					// Fresh workload per system: adversarial streams are
					// stateful and every design must see its own copy.
					fresh := workload.Adversarial(seed)[wi]
					sim := design
					if row.noise != nil {
						sim = withNoise(design, row.noise)
					}
					sys := cmpsim.New(cmpsim.DefaultConfig(), sim, fresh)
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
