// Package cacti is a simplified analytical cache-timing model standing
// in for the modified Cacti 3.2 used by the paper (§4.2). It derives
// access latencies, in cycles at 5 GHz / 70 nm, from cache geometry:
//
//	t_array = a + b·sqrt(size_KB) + c·log2(assoc)        (array access)
//	t_wire  = distance_mm · WirePSPerMM                   (routing)
//
// following the paper's methodology of (1) treating each d-group as an
// independent tagless cache optimized for subarray geometry, (2)
// accounting for the RC wire delay to route around closer d-groups, and
// (3) separately optimizing the tag arrays. The constants are
// calibrated so the model reproduces the paper's Table 1 exactly (the
// real Cacti is unavailable; see DESIGN.md substitution record) while
// still *scaling* with geometry, so ablations over different sizes and
// associativities remain meaningful.
//
// The model's physical quantities are carried by the dimensional types
// Picoseconds and Millimeters; ToCycles is the single place physical
// time becomes clock cycles, and it always rounds up.
package cacti

import (
	"math"

	"cmpnurapid/internal/memsys"
)

// Picoseconds is a physical delay in the timing model, before
// quantization to clock cycles.
//
// unitcheck:unit duration
type Picoseconds float64

// Millimeters is an on-chip routing distance.
//
// unitcheck:unit length
type Millimeters float64

// Technology constants at 70 nm, 5 GHz.
const (
	// CyclePS is the clock period in picoseconds (5 GHz).
	CyclePS Picoseconds = 200.0

	// WirePSPerMM is the delay of a repeated global RC wire. Calibrated
	// against the paper's 32-cycle bus (a 16 mm cross-chip route) and
	// the 27-cycle delta between the closest and farthest d-group.
	WirePSPerMM = 400.0

	// AddressBits is the physical address width used to size tag
	// entries (the paper simulates a 4 GB memory; we allow headroom).
	AddressBits = 40

	// PointerBits is the size of NuRAPID forward/reverse pointers; an
	// 8 MB cache with 128 B blocks has 64 Ki frames, so 16 bits suffice
	// ([8]: "16-bit forward and reverse pointers").
	PointerBits = 16

	// StateBits covers MESIC coherence state plus valid.
	StateBits = 3
)

// Tag-array timing coefficients (picoseconds).
const (
	tagBasePS      = 66.0
	tagPerSqrtKBPS = 48.6
	tagPerWayLogPS = 93.0
)

// Data-bank timing coefficients (picoseconds). Data banks have wide
// (block-width) accesses, so they are faster per bit than tag arrays.
const (
	dataBasePS      = 115.0
	dataPerSqrtKBPS = 19.9
	dataPerWayLogPS = 60.0
)

// outputDriverPS is the fixed output-path overhead charged once per
// parallel tag+data access (used for L1-style caches).
const outputDriverPS = 150.0

// Scale returns the distance scaled by the dimensionless factor f
// (floorplan distances shrink with the square root of bank area in the
// capacity-sensitivity sweeps).
func (m Millimeters) Scale(f float64) Millimeters {
	return Millimeters(float64(m) * f)
}

// TagArrayPS returns the access time of a tag array of the given size
// in KB probed with the given associativity (comparators and way
// muxing grow with log2 of associativity).
func TagArrayPS(sizeKB float64, assoc int) Picoseconds {
	return Picoseconds(tagBasePS + tagPerSqrtKBPS*math.Sqrt(sizeKB) + tagPerWayLogPS*log2(assoc))
}

// DataBankPS returns the access time of a data bank (or d-group) of the
// given size in KB. For sequential tag-data access the bank is accessed
// as a direct frame lookup, but sense/mux circuitry still scales with
// the set associativity the bank was laid out for.
func DataBankPS(sizeKB float64, assoc int) Picoseconds {
	return Picoseconds(dataBasePS + dataPerSqrtKBPS*math.Sqrt(sizeKB) + dataPerWayLogPS*log2(assoc))
}

// WirePS returns the routing delay over distance mm of repeated wire.
func WirePS(mm Millimeters) Picoseconds {
	return Picoseconds(float64(mm) * WirePSPerMM)
}

// ToCycles converts physical time to whole clock cycles. It is the
// single ps→cycle conversion in the codebase and always rounds the
// same direction: up (ceiling), with a floor of one cycle — an access
// can never complete in less than a cycle.
func ToCycles(ps Picoseconds) memsys.Cycles {
	c := memsys.Cycles(math.Ceil(float64(ps / CyclePS)))
	if c < 1 {
		c = 1
	}
	return c
}

// TagGeometry describes a tag array's logical contents.
type TagGeometry struct {
	CacheBytes memsys.Bytes // capacity of the data the tags cover
	BlockBytes memsys.Bytes
	Assoc      int
	// SetFactor multiplies the number of sets; CMP-NuRAPID doubles each
	// core's tag capacity ("we double the number of sets while
	// maintaining the same set associativity", §2.2.2).
	SetFactor int
	// Pointers is true when each entry carries a forward pointer
	// (distance-associative designs).
	Pointers bool
}

// Sets returns the number of tag sets.
func (g TagGeometry) Sets() int {
	sets := g.CacheBytes.Per(g.BlockBytes.Times(g.Assoc))
	f := g.SetFactor
	if f < 1 {
		f = 1
	}
	return sets * f
}

// Entries returns the total number of tag entries.
func (g TagGeometry) Entries() int { return g.Sets() * g.Assoc }

// EntryBits returns the width of one tag entry.
func (g TagGeometry) EntryBits() int {
	setBits := log2i(g.Sets())
	offsetBits := log2i(int(g.BlockBytes))
	tagBits := AddressBits - setBits - offsetBits
	bits := tagBits + StateBits
	if g.Pointers {
		bits += PointerBits
	}
	return bits
}

// SizeKB returns the tag array size in KB.
func (g TagGeometry) SizeKB() float64 {
	return float64(g.Entries()*g.EntryBits()) / 8 / 1024
}

// AccessPS returns the tag array access time in picoseconds.
func (g TagGeometry) AccessPS() Picoseconds { return TagArrayPS(g.SizeKB(), g.Assoc) }

// DataBankCycles returns the access latency in cycles of a data bank of
// bankBytes capacity laid out for the given associativity, plus the
// wire delay to reach it over wireMM of routing.
func DataBankCycles(bankBytes memsys.Bytes, assoc int, wireMM Millimeters) memsys.Cycles {
	ps := DataBankPS(bankBytes.KB(), assoc) + WirePS(wireMM)
	return ToCycles(ps)
}

// TagCycles returns the access latency in cycles of a tag array with
// geometry g reached over wireMM of routing (0 for a core-adjacent
// private tag; the chip-central shared tag pays a long route).
func TagCycles(g TagGeometry, wireMM Millimeters) memsys.Cycles {
	return ToCycles(g.AccessPS() + WirePS(wireMM))
}

// ParallelCacheCycles models a small cache (e.g. an L1) that probes tag
// and data in parallel: max of the two paths plus the output driver.
func ParallelCacheCycles(cacheBytes, blockBytes memsys.Bytes, assoc int) memsys.Cycles {
	g := TagGeometry{CacheBytes: cacheBytes, BlockBytes: blockBytes, Assoc: assoc}
	data := DataBankPS(cacheBytes.KB(), assoc)
	ps := Picoseconds(math.Max(float64(g.AccessPS()), float64(data))) + outputDriverPS
	return ToCycles(ps)
}

// BusCycles returns the latency of the pipelined split-transaction bus:
// the paper assumes it equals the wire delay for a core to reach the
// farthest tag array (§4.2).
func BusCycles(routeMM Millimeters) memsys.Cycles { return ToCycles(WirePS(routeMM)) }

func log2(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Log2(float64(n))
}

// log2i returns floor(log2(n)) for n >= 1.
func log2i(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}
