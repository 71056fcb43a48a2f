package workload

import "cmpnurapid/internal/cmpsim"

// Adversarial workloads for cmpsim's adversarial sweep (docs/ROBUSTNESS.md).
// Unlike the calibrated Table 3 profiles, these are deliberately
// pathological streams: they push a single resource (one block, one
// bus, one region) to its limit, which is where livelocks, invariant
// violations and accounting bugs hide. Each is deterministic per seed,
// like every other workload in the package.

// Hammer is the single-address hammer: every core read-modify-writes
// the same read-write shared block with no intervening compute. Under
// MESI this is the worst-case ownership ping-pong; under MESIC the
// block collapses into one C copy that all four cores pound through
// the bus.
func Hammer(seed uint64) Profile {
	return Profile{
		Name:         "adv-hammer",
		RWFrac:       1,
		RWBlocks:     1,
		RWModifyFrac: 1,
		Seed:         seed,
	}
}

// AllShared makes every reference shared — half read-only, half
// read-write with a high store fraction — over footprints larger than
// the shared L2, so sharing, replication and capacity pressure all
// peak at once.
func AllShared(seed uint64) Profile {
	return Profile{
		Name:       "adv-all-shared",
		ComputeMin: 1, ComputeMax: 2,
		ROFrac: 0.5, RWFrac: 0.5,
		ROBlocks: blocksForMB(6), ROTheta: 0.6,
		RWBlocks: blocksForMB(6), RWTheta: 0.6,
		RWModifyFrac: 0.25, RWWriteFrac: 0.50,
		Seed: seed,
	}
}

// MaxThreads is maximal thread pressure: all four cores issue
// back-to-back memory references (zero compute between them) across
// code, shared and private regions, saturating the bus and every
// single-ported structure simultaneously.
func MaxThreads(seed uint64) Profile {
	return Profile{
		Name:      "adv-max-threads",
		InstrFrac: 0.2,
		ROFrac:    0.3, RWFrac: 0.3,
		CodeBlocks: blocksForMB(0.5), CodeTheta: 0.9,
		ROBlocks: blocksForMB(2), ROTheta: 0.8,
		RWBlocks: blocksForMB(1), RWTheta: 0.8,
		PrivateBlocks: uniform(blocksForMB(2)), PrivateTheta: 0.8,
		RWModifyFrac: 0.40, RWWriteFrac: 0.20,
		PrivateWriteFrac: 0.50,
		Seed:             seed,
	}
}

// ZeroFootprint is a workload that touches no memory at all: every op
// is pure compute. The memory system sees zero traffic while the cores
// still retire instructions — the degenerate end of the footprint
// axis. (Compute is 1, not 0: cmpsim refuses an op that does no
// work.)
type ZeroFootprint struct{}

// Name implements cmpsim.Workload.
func (ZeroFootprint) Name() string { return "adv-zero-footprint" }

// Next implements cmpsim.Workload.
func (ZeroFootprint) Next(core int) cmpsim.Op { return cmpsim.Op{Compute: 1, NoMem: true} }

// SingleThreaded restricts a workload to core 0: the other cores spin
// on one-instruction compute ops, so the stream exercises the
// single-thread path through a four-core memory system (no sharing, no
// contention — everything the designs optimise for is absent).
type SingleThreaded struct {
	Inner cmpsim.Workload
}

// Name implements cmpsim.Workload.
func (s SingleThreaded) Name() string { return s.Inner.Name() + "-1thread" }

// Next implements cmpsim.Workload.
func (s SingleThreaded) Next(core int) cmpsim.Op {
	if core == 0 {
		return s.Inner.Next(0)
	}
	return cmpsim.Op{Compute: 1, NoMem: true}
}

// Adversarial returns the adversarial sweep's workload catalog at the
// given seed.
func Adversarial(seed uint64) []cmpsim.Workload {
	return []cmpsim.Workload{
		New(Hammer(seed)),
		New(AllShared(seed + 1)),
		New(MaxThreads(seed + 2)),
		ZeroFootprint{},
		SingleThreaded{Inner: New(Hammer(seed + 3))},
	}
}
