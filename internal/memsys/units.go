package memsys

// This file defines the dimensional unit types every simulator quantity
// travels through. Before them, timestamps, durations and capacities
// were bare uint64/int and a picosecond↔cycle or timestamp↔duration
// mix-up compiled clean; now the Go type system rejects most unit
// confusions outright and the simlint `unitcheck` analyzer (see
// docs/ANALYSIS.md) flags the remainder — the arithmetic forms Go still
// accepts (timestamp+timestamp, duration×duration), raw conversions
// that would launder a value into a unit, and raw-typed declarations
// whose names claim a unit.
//
// Convention (recorded in DESIGN.md):
//
//   - memsys.Cycle is an absolute point on a core's simulated clock.
//   - memsys.Cycles is a signed span of clock cycles (a latency).
//   - memsys.Bytes is a storage capacity or block size.
//   - cacti.Picoseconds and cacti.Millimeters carry the analytical
//     timing model's physical quantities; cacti.ToCycles is the only
//     ps→cycle conversion, and it always rounds up (ceiling).
//
// Arithmetic across units happens only through the named methods and
// constructors below (and cacti's), which live in the unit-declaring
// packages — the one place `unitcheck` permits raw conversions.

// Cycle is an absolute simulated timestamp: a point on the global
// cycle clock. Timestamps are ordered (comparisons are fine) but do
// not add — only a duration may be added to a timestamp.
//
// unitcheck:unit timestamp
type Cycle uint64

// Cycles is a duration in clock cycles: a latency, an occupancy, a
// makespan. Durations add and subtract; duration×duration has no
// dimensional meaning and is rejected by unitcheck.
//
// unitcheck:unit duration
type Cycles int64

// Bytes is a storage capacity or block size.
//
// unitcheck:unit size
type Bytes int

// Add returns the timestamp d cycles after t.
func (t Cycle) Add(d Cycles) Cycle { return t + Cycle(d) }

// Sub returns the duration elapsed from u to t (t - u).
func (t Cycle) Sub(u Cycle) Cycles { return Cycles(t) - Cycles(u) }

// CyclesOf types a raw count of cycles as a duration. It is the one
// named constructor for durations arriving from dimensionless sources
// (e.g. a workload op's compute-instruction count at CPI 1).
func CyclesOf(n int) Cycles { return Cycles(n) }

// Times scales a duration by a dimensionless count.
func (d Cycles) Times(n int) Cycles { return d * Cycles(n) }

// MB types a mebibyte count as a capacity (the sweep inputs are in MB).
func MB(n int) Bytes { return Bytes(n) << 20 }

// Times scales a capacity by a dimensionless count.
func (b Bytes) Times(n int) Bytes { return b * Bytes(n) }

// Per returns how many unit-sized items fit in b (b / unit, truncated).
func (b Bytes) Per(unit Bytes) int { return int(b / unit) }

// KB returns the capacity in kilobytes as a dimensionless float for
// the analytical timing model's sqrt-scaling formulas.
func (b Bytes) KB() float64 { return float64(b) / 1024 }
