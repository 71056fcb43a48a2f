// Package l2 implements the baseline last-level cache organizations
// the paper evaluates CMP-NuRAPID against (§4.2): the conventional
// uniform-shared cache, the non-uniform-shared cache (CMP-SNUCA from
// [6]), per-core private caches kept coherent with MESI, and the ideal
// cache (shared capacity at private latency) that upper-bounds the
// achievable improvement. Two opt-in baselines reuse those types: the
// private caches under a write-update protocol (Private with Update)
// and CMP-DNUCA (SNUCA with Migrate), the alternatives §3.2 and [6]
// argue against.
package l2

import (
	"cmpnurapid/internal/cache"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
)

// sharedPayload tracks nothing; a shared cache has one copy per block
// and no coherence state below the L1s.
type sharedPayload struct{}

// Shared is a monolithic shared L2: one copy per block, uniform access
// latency from every core. With the paper's Table 1 latencies it is the
// "uniform-shared" baseline (59 cycles); with private-cache latency it
// is the "ideal" cache of Figure 6.
type Shared struct {
	name       string
	arr        *cache.Array[sharedPayload]
	hitLatency memsys.Cycles
	memLatency memsys.Cycles
	stats      *memsys.L2Stats
	l1inv      func(core int, addr memsys.Addr)
}

// NewUniformShared builds the paper's base configuration: 8 MB, 32-way,
// 128 B blocks, 59-cycle access (26 tag + 33 data, Table 1), 300-cycle
// memory.
func NewUniformShared() *Shared {
	l := topo.Derive()
	return NewShared("uniform-shared", topo.TotalL2Bytes, topo.SharedAssoc,
		topo.BlockBytes, l.SharedTotal, 300)
}

// NewIdeal builds the ideal cache: the full shared capacity at each
// private cache's 10-cycle latency. "The ideal cache has the capacity
// advantages of shared and latency advantages of private caches"
// (§5.1.1); it is unbuildable and serves as the upper bound.
func NewIdeal() *Shared {
	l := topo.Derive()
	return NewShared("ideal", topo.TotalL2Bytes, topo.SharedAssoc,
		topo.BlockBytes, l.PrivateTotal, 300)
}

// NewShared builds a shared cache with explicit geometry and timing.
func NewShared(name string, capacityBytes memsys.Bytes, ways int, blockBytes memsys.Bytes, hitLatency, memLatency memsys.Cycles) *Shared {
	return &Shared{
		name:       name,
		arr:        cache.NewArray[sharedPayload](cache.GeometryFor(capacityBytes, ways, blockBytes)),
		hitLatency: hitLatency,
		memLatency: memLatency,
		stats:      memsys.NewL2Stats(),
	}
}

// Name implements memsys.L2.
func (s *Shared) Name() string { return s.name }

// Stats implements memsys.L2.
func (s *Shared) Stats() *memsys.L2Stats { return s.stats }

// SetL1Invalidate implements memsys.L1Invalidator.
func (s *Shared) SetL1Invalidate(fn func(core int, addr memsys.Addr)) { s.l1inv = fn }

// LineState implements memsys.LineStateProber for stall diagnostics:
// a monolithic shared cache has no per-core coherence state, so it
// reports whether the block is resident.
func (s *Shared) LineState(core int, addr memsys.Addr) string {
	if s.arr.Probe(addr.BlockAddr(s.arr.Geometry().BlockBytes)) != nil {
		return "resident"
	}
	return "absent"
}

// Access implements memsys.L2. A shared cache has only hits and
// capacity misses: every on-chip block has exactly one copy that all
// cores reach at the same latency, so sharing never misses (Figure 5:
// "Shared cache has only hits and capacity misses").
//
// hotpath:root
func (s *Shared) Access(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Result {
	addr = addr.BlockAddr(s.arr.Geometry().BlockBytes)
	if l := s.arr.Probe(addr); l != nil {
		s.arr.Touch(l)
		res := memsys.Result{Latency: s.hitLatency, Category: memsys.Hit, DGroup: -1}
		s.stats.RecordAccess(res)
		return res
	}
	s.stats.OffChipMisses++
	v := s.arr.Victim(addr)
	if v.Valid {
		evicted := s.arr.AddrOf(v)
		// Inclusion: every core's L1 may hold the dying block.
		if s.l1inv != nil {
			for c := 0; c < topo.NumCores; c++ {
				s.l1inv(c, evicted)
			}
		}
	}
	s.arr.Install(v, addr, sharedPayload{})
	res := memsys.Result{
		Latency:  s.hitLatency + s.memLatency,
		Category: memsys.CapacityMiss,
		DGroup:   -1,
	}
	s.stats.RecordAccess(res)
	_ = write // writes allocate identically; the L1s handle dirtiness
	return res
}
