// Package memsys defines the types shared across the memory hierarchy:
// addresses, access descriptors, the paper's miss taxonomy (hits,
// read-only-sharing misses, read-write-sharing misses, capacity
// misses), the L2 design interface that all five evaluated cache
// organizations implement, and the per-design statistics every
// experiment reads.
package memsys

import (
	"cmpnurapid/internal/stats"
)

// Addr is a physical byte address.
type Addr uint64

// BlockAddr returns the address truncated to a block boundary.
func (a Addr) BlockAddr(blockBytes Bytes) Addr {
	return a &^ Addr(blockBytes-1)
}

// Access describes one memory reference issued by a core.
type Access struct {
	Core  int
	Addr  Addr
	Write bool
	// Instr marks instruction fetches (routed through the L1 I-cache).
	Instr bool
}

// Category classifies an L2 access outcome the way the paper's
// Figures 5, 8, and 11 do.
type Category int

const (
	// Hit: the L2 supplied the block without an off-chip access or a
	// coherence transfer from another private cache.
	Hit Category = iota
	// ROSMiss: miss on a block another on-chip copy holds in a clean
	// shared state — a read-only-sharing miss ("we count a miss as a
	// ROS miss when another copy of the block exists in shared state").
	ROSMiss
	// RWSMiss: miss on a block a dirty on-chip copy exists for — a
	// read-write-sharing (coherence) miss.
	RWSMiss
	// CapacityMiss: no other on-chip copy; the block comes from memory.
	// Cold misses are folded in, as the paper measures after warm-up.
	CapacityMiss
	numCategories
)

func (c Category) String() string {
	switch c {
	case Hit:
		return "hit"
	case ROSMiss:
		return "ROS miss"
	case RWSMiss:
		return "RWS miss"
	case CapacityMiss:
		return "capacity miss"
	}
	return "unknown"
}

// IsMiss reports whether the category is any kind of miss.
func (c Category) IsMiss() bool { return c != Hit }

// Result describes the outcome of one L2 access.
type Result struct {
	// Latency is the total cycles the L2 and everything below it
	// (bus, other caches, memory) added to this access, measured from
	// the cycle the request reached the L2.
	Latency Cycles
	// Category is the paper's miss-taxonomy classification.
	Category Category
	// DGroup is the data d-group that supplied a hit in a
	// distance-associative design, or -1 when not applicable.
	DGroup int
	// ClosestDGroup reports whether the hit was served by the
	// requesting core's closest d-group (Figure 9's breakdown).
	ClosestDGroup bool
}

// L2 is implemented by each evaluated cache organization:
// uniform-shared, non-uniform-shared (SNUCA), private with MESI, ideal,
// and CMP-NuRAPID.
type L2 interface {
	// Access performs a data reference for core at absolute cycle now
	// and returns its outcome. Implementations account for bus and
	// port contention internally using now.
	Access(now Cycle, core int, addr Addr, write bool) Result
	// Name identifies the design in experiment output.
	Name() string
	// Stats exposes the accumulated measurements.
	Stats() *L2Stats
}

// L1Invalidator is implemented by L2 designs that must invalidate L1
// copies to preserve inclusion (the simulator wires this to the cores'
// L1s).
type L1Invalidator interface {
	// SetL1Invalidate registers a callback invoked when core's L1 must
	// drop any copy of addr.
	SetL1Invalidate(fn func(core int, addr Addr))
}

// LineStateProber is optionally implemented by L2 designs that can
// report a human-readable coherence/residency state for core's view of
// the block containing addr (e.g. "M", "C", "resident"). The simulator
// uses it to enrich forward-progress stall diagnostics; it must not
// mutate any state (no LRU touch, no stat count).
type LineStateProber interface {
	LineState(core int, addr Addr) string
}

// BusBacklogReporter is optionally implemented by L2 designs built
// around a snoopy bus: it reports the arbitration backlog a request
// issued at now would face. Stall diagnostics include it so a livelock
// caused by bus saturation is distinguishable from one caused by a
// protocol bug.
type BusBacklogReporter interface {
	BusBacklog(now Cycle) Cycles
}

// L1Coherent marks L2 designs whose own protocol keeps the L1s
// coherent across cores (the snoopy designs: private MESI and
// CMP-NuRAPID's MESIC). For designs without it — the shared caches —
// the simulator provides directory-style L1 management, mirroring how
// shared-L2 CMPs keep "L1 tag copies at the L2" to keep L1s coherent
// (paper §2.2.2, citing Piranha).
type L1Coherent interface {
	MaintainsL1Coherence()
}

// Access-distribution labels shared by all figures.
const (
	LabelHit      = "hits"
	LabelROS      = "ROS misses"
	LabelRWS      = "RWS misses"
	LabelCapacity = "capacity misses"
)

// Data-array distribution labels (Figure 9).
const (
	LabelClosest = "hits in closest d-grp"
	LabelFarther = "hits in farther d-grps"
	LabelMiss    = "misses"
)

// L2Stats accumulates everything the evaluation figures need.
type L2Stats struct {
	// Accesses is the tag-array access distribution by category
	// (Figures 5, 8, 11).
	Accesses *stats.Dist
	// DataArray is the data-array access distribution: closest d-group
	// hit, farther d-group hit, miss (Figure 9).
	DataArray *stats.Dist
	// ReuseROS/ReuseRWS are the Figure 7 lifetime-reuse histograms for
	// blocks brought in by ROS misses (recorded at replacement) and by
	// RWS misses (recorded at invalidation).
	ReuseROS stats.ReuseHist
	ReuseRWS stats.ReuseHist
	// BusTransactions counts snoop traffic by kind: the transactions
	// issued on the bus (counted by bus.Transact) plus the snoop
	// flushes and pointer returns that answer them.
	BusTransactions *stats.Dist
	// BusWait accumulates the bus arbitration wait of every issued
	// transaction (counted by bus.Transact).
	BusWait Cycles
	// Replications counts data copies made by controlled replication;
	// PointerReturns counts CR pointer transfers that avoided a copy.
	Replications   uint64
	PointerReturns uint64
	// Promotions and Demotions count capacity-stealing block moves.
	Promotions uint64
	Demotions  uint64
	// OffChipMisses counts accesses that went to memory.
	OffChipMisses uint64
	// LatencySum accumulates every access's latency, for average-
	// latency analysis (LatencySum / Accesses.Total()).
	LatencySum uint64
}

// Bus-transaction labels.
const (
	LabelBusRd   = "BusRd"
	LabelBusRdX  = "BusRdX"
	LabelBusUpg  = "BusUpg"
	LabelBusRepl = "BusRepl"
	LabelFlush   = "Flush"
	LabelPtrRet  = "PtrReturn"
)

// NewL2Stats returns zeroed statistics.
func NewL2Stats() *L2Stats {
	return &L2Stats{
		Accesses:  stats.NewDist(LabelHit, LabelROS, LabelRWS, LabelCapacity),
		DataArray: stats.NewDist(LabelClosest, LabelFarther, LabelMiss),
		BusTransactions: stats.NewDist(
			LabelBusRd, LabelBusRdX, LabelBusUpg, LabelBusRepl, LabelFlush, LabelPtrRet),
	}
}

// RecordAccess tallies one access outcome into the tag and data
// distributions.
func (s *L2Stats) RecordAccess(r Result) {
	s.LatencySum += uint64(r.Latency)
	switch r.Category {
	case Hit:
		s.Accesses.Inc(LabelHit)
		if r.DGroup >= 0 {
			if r.ClosestDGroup {
				s.DataArray.Inc(LabelClosest)
			} else {
				s.DataArray.Inc(LabelFarther)
			}
		} else {
			// Designs without d-groups count every hit as closest so
			// the data-array distribution stays well-defined.
			s.DataArray.Inc(LabelClosest)
		}
	case ROSMiss:
		s.Accesses.Inc(LabelROS)
		s.DataArray.Inc(LabelMiss)
	case RWSMiss:
		s.Accesses.Inc(LabelRWS)
		s.DataArray.Inc(LabelMiss)
	case CapacityMiss:
		s.Accesses.Inc(LabelCapacity)
		s.DataArray.Inc(LabelMiss)
	}
}

// Reset zeroes all measurements; the simulator calls it after cache
// warm-up so figures reflect steady state, as the paper measures.
func (s *L2Stats) Reset() {
	s.Accesses.Reset()
	s.DataArray.Reset()
	s.BusTransactions.Reset()
	*s = L2Stats{Accesses: s.Accesses, DataArray: s.DataArray, BusTransactions: s.BusTransactions}
}

// MissRate returns the fraction of accesses that missed.
func (s *L2Stats) MissRate() float64 {
	t := s.Accesses.Total()
	if t == 0 {
		return 0
	}
	return 1 - s.Accesses.Frac(LabelHit)
}
