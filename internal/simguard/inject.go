package simguard

import (
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/rng"
)

// Fault injectors. Each constructor seeds its own internal/rng stream,
// so a chaos run is bit-reproducible from (injector, seed): the
// simulator is single-threaded per system, draws happen in simulation
// order, and nothing else shares the stream. Injected delays are pure
// timing perturbations — they must never change *functional* behaviour
// (which block is where, which states hold), which is exactly what the
// chaos sweep's CheckInvariants assertions verify.

// BusJitter returns a bus.Config.GrantJitter hook adding a uniform
// [0, max] cycle arbitration delay to every bus transaction.
func BusJitter(seed uint64, max memsys.Cycles) func(now memsys.Cycle) memsys.Cycles {
	src := rng.New(seed ^ 0xb05_717e8)
	return func(now memsys.Cycle) memsys.Cycles {
		return memsys.CyclesOf(src.Intn(int(max) + 1))
	}
}

// LatencyNoise returns a cmpsim.Config.ExtraLatency hook adding a
// uniform [0, max] cycle perturbation to every L2 access a core
// observes (miss handling, queueing variation, DVFS wobble — anything
// that stretches an access without changing what it does).
func LatencyNoise(seed uint64, max memsys.Cycles) func(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Cycles {
	src := rng.New(seed ^ 0x1a7e_0c15)
	return func(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Cycles {
		return memsys.CyclesOf(src.Intn(int(max) + 1))
	}
}

// Injector is one catalog entry of the fault-injection sweep: a named,
// seeded perturbation the chaos tests apply to every design. Either
// hook may be nil.
type Injector struct {
	Name string
	// Bus perturbs bus arbitration (wired into bus.Config.GrantJitter
	// through the design's Config).
	Bus func(now memsys.Cycle) memsys.Cycles
	// Latency perturbs observed L2 latency (wired into
	// cmpsim.Config.ExtraLatency).
	Latency func(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Cycles
}

// Injectors returns the standard catalog at the given seed: no fault
// (the control), bus-grant jitter, latency perturbation, and both at
// once. docs/ROBUSTNESS.md documents each entry.
func Injectors(seed uint64) []Injector {
	return []Injector{
		{Name: "none"},
		{Name: "bus-jitter", Bus: BusJitter(seed, 24)},
		{Name: "latency-noise", Latency: LatencyNoise(seed, 64)},
		{
			Name:    "bus-jitter+latency-noise",
			Bus:     BusJitter(seed+1, 24),
			Latency: LatencyNoise(seed+1, 64),
		},
	}
}
