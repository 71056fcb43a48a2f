// Package topo models the CMP floorplan of the paper's Figure 1: four
// cores (P0–P3) around four 2 MB data d-groups (a–d) arranged in a 2x2
// grid, each core adjacent to one d-group. It provides the per-core
// d-group distances, the staggered d-group preference rankings that
// avoid contention between cores (§2.2.1), and the derived Table 1
// latencies computed through the cacti timing model.
package topo

import (
	"fmt"
	"math"

	"cmpnurapid/internal/cacti"
	"cmpnurapid/internal/memsys"
)

// NumCores and NumDGroups fix the paper's 4-core, 4-d-group floorplan.
// The number of d-groups need not equal the number of cores in general,
// but "bandwidth considerations make it preferable to have at least one
// d-group per core" (§2.2.1), and all of the paper's experiments use
// exactly four of each.
const (
	NumCores   = 4
	NumDGroups = 4
)

// DGroupNames gives the paper's a–d naming for messages and tables.
var DGroupNames = [NumDGroups]string{"a", "b", "c", "d"}

// gridPos places d-group i (and its adjacent core i) on the 2x2 grid.
var gridPos = [NumDGroups][2]int{
	{0, 0}, // a / P0
	{1, 0}, // b / P1
	{0, 1}, // c / P2
	{1, 1}, // d / P3
}

// Distance returns the Manhattan grid distance (0, 1, or 2 d-group
// pitches) from core to the given d-group. Core i sits adjacent to
// d-group i.
func Distance(core, dgroup int) int {
	c, g := gridPos[core], gridPos[dgroup]
	return abs(c[0]-g[0]) + abs(c[1]-g[1])
}

// Routing distances in millimetres for each grid distance. Distance 2
// is slightly less than twice distance 1 because the longer route has a
// diagonal component rather than routing twice around a neighbour.
// Calibrated with the cacti wire model against Table 1 (20- and
// 33-cycle d-group latencies) and the 32-cycle bus.
var distanceMM = [3]cacti.Millimeters{0, 7, 13.5}

// CentralTagMM is the route from a core to a chip-central shared tag
// array (the uniform-shared baseline), and BusRouteMM the route to the
// farthest tag array, which the paper uses as the bus latency.
const (
	CentralTagMM cacti.Millimeters = 9.5
	BusRouteMM   cacti.Millimeters = 16
)

// DGroupMM returns the routing distance in mm from core to dgroup.
func DGroupMM(core, dgroup int) cacti.Millimeters {
	return distanceMM[Distance(core, dgroup)]
}

// Preference is the staggered d-group ranking of the paper's Figure 1:
// each row lists, for one core, the d-groups from most to least
// preferred. Rankings are distance-ordered, with ties between
// equidistant d-groups broken so that no two cores contend for the same
// second-choice d-group.
var Preference = [NumCores][NumDGroups]int{
	{0, 1, 2, 3}, // P0: a b c d
	{1, 3, 0, 2}, // P1: b d a c
	{2, 0, 3, 1}, // P2: c a d b
	{3, 2, 1, 0}, // P3: d c b a
}

// Closest returns the d-group adjacent to core (its first preference).
func Closest(core int) int { return Preference[core][0] }

// Rank returns the position (0 = most preferred) of dgroup in core's
// preference order.
func Rank(core, dgroup int) int {
	for r, g := range Preference[core] {
		if g == dgroup {
			return r
		}
	}
	panic(fmt.Sprintf("topo: d-group %d not in core %d's preference", dgroup, core))
}

// NextFaster returns the next d-group closer to core than dgroup in
// core's preference order (used by the next-fastest promotion policy),
// and ok=false when dgroup is already the closest.
func NextFaster(core, dgroup int) (int, bool) {
	r := Rank(core, dgroup)
	if r == 0 {
		return dgroup, false
	}
	return Preference[core][r-1], true
}

// NextSlower returns the next d-group farther from core than dgroup
// (used by demotion), and ok=false when dgroup is already the farthest.
func NextSlower(core, dgroup int) (int, bool) {
	r := Rank(core, dgroup)
	if r == NumDGroups-1 {
		return dgroup, false
	}
	return Preference[core][r+1], true
}

// Latencies collects every derived Table 1 number, in cycles.
type Latencies struct {
	// Uniform-shared 8 MB 32-way baseline (timed as 8-way 1-port).
	SharedTag   memsys.Cycles
	SharedData  memsys.Cycles
	SharedTotal memsys.Cycles

	// Private 2 MB 8-way per-core caches.
	PrivateTag   memsys.Cycles
	PrivateData  memsys.Cycles
	PrivateTotal memsys.Cycles

	// CMP-NuRAPID: doubled private tag with pointers, plus per-core
	// per-d-group data latencies.
	NuRAPIDTag memsys.Cycles
	DGroupData [NumCores][NumDGroups]memsys.Cycles

	// Pipelined split-transaction bus.
	Bus memsys.Cycles

	// DGroupBytes is the d-group capacity DeriveWith derived these for.
	DGroupBytes memsys.Bytes
}

// Paper §4.2 cache geometry, off-chip memory latency (300 cycles) and
// bus issue interval (a new transaction every 4 cycles).
const (
	TotalL2Bytes = 8 << 20
	BlockBytes   = 128
	SharedAssoc  = 32
	TimedAssoc   = 8 // shared latency conservatively timed as 8-way
	PrivateAssoc = 8
	DGroupBytes  = 2 << 20

	MemLatency    memsys.Cycles = 300
	BusSlotCycles memsys.Cycles = 4
)

// DeriveWith computes latencies for an alternative per-d-group
// capacity (the cache-size sensitivity sweep). The floorplan distances
// scale with the square root of the bank area: smaller banks sit
// closer together.
func DeriveWith(dgroupBytes memsys.Bytes) Latencies {
	scale := sqrtRatio(dgroupBytes, DGroupBytes)
	l := Latencies{DGroupBytes: dgroupBytes}

	totalBytes := dgroupBytes.Times(NumDGroups)
	sharedTag := cacti.TagGeometry{
		CacheBytes: totalBytes, BlockBytes: BlockBytes, Assoc: SharedAssoc,
	}
	l.SharedTag = cacti.TagCycles(sharedTag, CentralTagMM.Scale(scale))
	l.SharedData = cacti.DataBankCycles(dgroupBytes, TimedAssoc, distanceMM[2].Scale(scale))
	l.SharedTotal = l.SharedTag + l.SharedData

	privTag := cacti.TagGeometry{
		CacheBytes: dgroupBytes, BlockBytes: BlockBytes, Assoc: PrivateAssoc,
	}
	l.PrivateTag = cacti.TagCycles(privTag, 0)
	l.PrivateData = cacti.DataBankCycles(dgroupBytes, PrivateAssoc, 0)
	l.PrivateTotal = l.PrivateTag + l.PrivateData

	nuTag := cacti.TagGeometry{
		CacheBytes: dgroupBytes, BlockBytes: BlockBytes, Assoc: PrivateAssoc,
		SetFactor: 2, Pointers: true,
	}
	l.NuRAPIDTag = cacti.TagCycles(nuTag, 0)
	for c := 0; c < NumCores; c++ {
		for g := 0; g < NumDGroups; g++ {
			l.DGroupData[c][g] = cacti.DataBankCycles(dgroupBytes, PrivateAssoc, DGroupMM(c, g).Scale(scale))
		}
	}
	l.Bus = cacti.BusCycles(BusRouteMM.Scale(scale))
	return l
}

func sqrtRatio(a, b memsys.Bytes) float64 {
	return math.Sqrt(float64(a) / float64(b))
}

// Derive computes all latencies from geometry through the cacti model
// at the paper's configuration (2 MB d-groups, Table 1).
func Derive() Latencies { return DeriveWith(DGroupBytes) }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
