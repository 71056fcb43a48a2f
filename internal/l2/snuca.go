package l2

import (
	"fmt"
	"math/bits"

	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/cache"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
)

// SNUCA is the non-uniform-shared baseline, modelling CMP-SNUCA from
// [6] (similar to Piranha's banked shared cache [4]): the address space
// is statically interleaved across banks, each bank has a distinct
// latency from each core, and — the property that distinguishes it from
// CMP-NuRAPID — there is no replication and no migration, so a shared
// block sits in whichever bank its address hashes to, equidistant from
// nobody in particular.
//
// Bank latencies are the d-group data latencies plus a switched-network
// overhead: [6]'s banks are reached through a switch fabric with
// distributed tags rather than CMP-NuRAPID's core-adjacent private tags
// and direct crossbar. NetOverhead is calibrated so the design lands
// where the paper measures it — a few percent above uniform-shared,
// well short of ideal (Figure 6).
type SNUCA struct {
	banks      []*cache.Array[sharedPayload]
	il         interleave // one bank per select value
	ports      []bus.Port
	lat        [topo.NumCores][topo.NumDGroups]memsys.Cycles
	memLatency memsys.Cycles
	stats      *memsys.L2Stats
	l1inv      func(core int, addr memsys.Addr)
}

// SNUCANetOverhead is the per-access switched-network and distributed-
// tag overhead in cycles added to each bank's wire-distance latency.
const SNUCANetOverhead memsys.Cycles = 20

// snucaSlotCycles is a bank's issue interval: SNUCA banks are
// pipelined (they are ordinary banked-cache banks), unlike
// CMP-NuRAPID's deliberately unpipelined d-groups (§3.3.2).
const snucaSlotCycles memsys.Cycles = 4

// NewSNUCA builds the paper-scale configuration: four 2 MB 8-way banks
// at the Table 1 d-group distances plus the network overhead.
func NewSNUCA() *SNUCA {
	l := topo.Derive()
	return NewSNUCAWith(topo.DGroupBytes, topo.PrivateAssoc, topo.BlockBytes,
		l.DGroupData, SNUCANetOverhead, 300)
}

// NewSNUCAWith builds a SNUCA with explicit geometry and timing.
func NewSNUCAWith(bankBytes memsys.Bytes, ways int, blockBytes memsys.Bytes, dist [topo.NumCores][topo.NumDGroups]memsys.Cycles, netOverhead, memLatency memsys.Cycles) *SNUCA {
	s := &SNUCA{
		il:         newInterleave(blockBytes, topo.NumDGroups),
		ports:      make([]bus.Port, topo.NumDGroups),
		memLatency: memLatency,
		stats:      memsys.NewL2Stats(),
	}
	for c := 0; c < topo.NumCores; c++ {
		for b := 0; b < topo.NumDGroups; b++ {
			s.lat[c][b] = dist[c][b] + netOverhead
		}
	}
	for b := 0; b < topo.NumDGroups; b++ {
		s.banks = append(s.banks, cache.NewArray[sharedPayload](
			cache.GeometryFor(bankBytes, ways, blockBytes)))
	}
	return s
}

// Name implements memsys.L2.
func (s *SNUCA) Name() string { return "non-uniform-shared" }

// Stats implements memsys.L2.
func (s *SNUCA) Stats() *memsys.L2Stats { return s.stats }

// SetL1Invalidate implements memsys.L1Invalidator.
func (s *SNUCA) SetL1Invalidate(fn func(core int, addr memsys.Addr)) { s.l1inv = fn }

// interleave statically spreads block addresses over n banks (SNUCA)
// or banksets (DNUCA) by the low bits of the block number, and folds
// those select bits out of the address a bank indexes with. Without
// the fold every block in bank b would have a block number congruent
// to b mod n, its set index would inherit that residue, and all but
// 1/n of each bank's sets would go unused.
type interleave struct {
	blockBits uint
	n         uint64
}

func newInterleave(blockBytes memsys.Bytes, n int) interleave {
	return interleave{blockBits: uint(bits.TrailingZeros64(uint64(blockBytes))), n: uint64(n)}
}

// sel returns the bank (or bankset) addr interleaves to.
func (il interleave) sel(addr memsys.Addr) int {
	return int((uint64(addr) >> il.blockBits) % il.n)
}

// inner folds the select bits out of addr: the block address the bank
// stores and indexes with.
func (il interleave) inner(addr memsys.Addr) memsys.Addr {
	return memsys.Addr((uint64(addr) >> il.blockBits) / il.n << il.blockBits)
}

// outer inverts inner for select value sel, reconstructing the block
// address (for L1 invalidation of an evicted block).
func (il interleave) outer(inner memsys.Addr, sel int) memsys.Addr {
	return memsys.Addr(((uint64(inner)>>il.blockBits)*il.n + uint64(sel)) << il.blockBits)
}

// LineState implements memsys.LineStateProber for stall diagnostics:
// a shared design has no per-core coherence state, so it reports
// residency in the owning bank.
func (s *SNUCA) LineState(core int, addr memsys.Addr) string {
	b := s.il.sel(addr)
	if s.banks[b].Probe(s.il.inner(addr)) != nil {
		return fmt.Sprintf("resident(bank%d)", b)
	}
	return fmt.Sprintf("absent(bank%d)", b)
}

// CheckInvariants verifies SNUCA's single-copy property at the bank
// level: no bank holds two valid lines for the same block. Static
// interleaving makes cross-bank duplication impossible by
// construction, so the remaining failure mode is an install path that
// skips the probe and double-allocates within a set.
func (s *SNUCA) CheckInvariants() {
	for b, bank := range s.banks {
		seen := map[memsys.Addr]bool{}
		bank.ForEach(func(_ int, l *cache.Line[sharedPayload]) {
			a := bank.AddrOf(l)
			if seen[a] {
				panic(fmt.Sprintf("l2: SNUCA bank %d holds block %#x twice", b, s.il.outer(a, b)))
			}
			seen[a] = true
		})
	}
}

// Access implements memsys.L2.
//
// hotpath:root
func (s *SNUCA) Access(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Result {
	b := s.il.sel(addr)
	lat := s.lat[core][b]
	start := s.ports[b].Acquire(now, snucaSlotCycles)
	lat += start.Sub(now)

	bank := s.banks[b]
	inner := s.il.inner(addr)
	if l := bank.Probe(inner); l != nil {
		bank.Touch(l)
		res := memsys.Result{Latency: lat, Category: memsys.Hit, DGroup: b,
			ClosestDGroup: b == topo.Closest(core)}
		s.stats.RecordAccess(res)
		return res
	}
	s.stats.OffChipMisses++
	v := bank.Victim(inner)
	if v.Valid && s.l1inv != nil {
		evicted := s.il.outer(bank.AddrOf(v), b)
		for c := 0; c < topo.NumCores; c++ {
			s.l1inv(c, evicted)
		}
	}
	bank.Install(v, inner, sharedPayload{})
	res := memsys.Result{Latency: lat + s.memLatency, Category: memsys.CapacityMiss, DGroup: -1}
	s.stats.RecordAccess(res)
	_ = write
	return res
}
