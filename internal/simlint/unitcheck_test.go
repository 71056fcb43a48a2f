package simlint

import (
	"reflect"
	"testing"
)

// unitsFixture is a minimal unit-declaring package mirroring the real
// memsys/cacti split: a timestamp, two durations in different scales,
// and the named constructors that cross between them.
const unitsFixture = `package units

// Stamp is an absolute point on the simulated clock.
//
// unitcheck:unit timestamp
type Stamp uint64

// Span is a duration in cycles.
//
// unitcheck:unit duration
type Span int64

// Picos is a duration in picoseconds.
//
// unitcheck:unit duration
type Picos float64

func (t Stamp) Add(d Span) Stamp { return t + Stamp(d) }

func (t Stamp) Sub(u Stamp) Span { return Span(t) - Span(u) }

func SpanOf(n int) Span { return Span(n) }

func ToSpan(p Picos) Span { return Span(p / 200) }
`

func lintUnits(t *testing.T, src string) []Diagnostic {
	t.Helper()
	return lintFixture(t, map[string]string{
		"units/units.go":      unitsFixture,
		"internal/sim/sim.go": src,
	}, NewUnitCheck())
}

func TestUnitCheckTimestampArithmetic(t *testing.T) {
	diags := lintUnits(t, `package sim

import "fix.example/m/units"

func bad(a, b units.Stamp) units.Stamp { return a + b }

func worse(t units.Stamp) units.Stamp {
	t += t
	return t
}

func good(t units.Stamp, d units.Span) units.Stamp { return t.Add(d) }

func alsoGood(t units.Stamp) units.Stamp { return t + 100 } // literal span
`)
	expectDiags(t, diags,
		"direct + arithmetic on two units.Stamp timestamps",
		"direct + arithmetic on two units.Stamp timestamps")
}

func TestUnitCheckDurationTimesDuration(t *testing.T) {
	diags := lintUnits(t, `package sim

import "fix.example/m/units"

func area(a, b units.Span) units.Span { return a * b }

func sum(a, b units.Span) units.Span { return a + b }   // fine: spans add
func diff(a, b units.Span) units.Span { return a - b }  // fine
func ratio(a, b units.Span) units.Span { return a / b } // fine: dimensionless ratio idiom
func scaled(a units.Span) units.Span { return a * 4 }   // fine: constant scalar
`)
	expectDiags(t, diags, "units.Span * units.Span has no dimensional meaning")
}

func TestUnitCheckConversionRules(t *testing.T) {
	diags := lintUnits(t, `package sim

import "fix.example/m/units"

func launder(p units.Picos) units.Span { return units.Span(p) }

func retype(n uint64) units.Stamp { return units.Stamp(n) }

func typed() units.Span { return units.Span(32) } // fine: constant literal

func same(s units.Span) units.Span { return units.Span(s) } // fine: identity

func out(s units.Span) int64 { return int64(s) } // fine: leaving the unit is free

func named(p units.Picos) units.Span { return units.ToSpan(p) } // fine: constructor
`)
	expectDiags(t, diags,
		"raw conversion of units.Picos into units.Span",
		"raw conversion of uint64 into units.Stamp")
}

func TestUnitCheckUnitPackageExempt(t *testing.T) {
	// The constructors in the units fixture are full of raw conversions
	// and timestamp arithmetic; none of it may be flagged.
	diags := lintUnits(t, `package sim
`)
	expectDiags(t, diags)
}

func TestUnitCheckNameClaimsUnit(t *testing.T) {
	diags := lintUnits(t, `package sim

import "fix.example/m/units"

type Cfg struct {
	HitLatency  int        // flagged: raw with a unit name
	TagCycles   uint64     // flagged
	WirePS      float64    // flagged (acronym split)
	wire_mm     float64    // flagged (snake split)
	MissLatency units.Span // fine: carries the unit type
	Ways        int        // fine: dimensionless
	Comm        float64    // fine: "comm" is not "mm"
	Mbps        float64    // fine: "mbps" is not "ps"
}

func step(now uint64, busCycles int) (latency int) { return busCycles }
`)
	expectDiags(t, diags,
		`field "HitLatency" is raw int but its name ("latency") claims a unit`,
		`field "TagCycles" is raw uint64 but its name ("cycles") claims a unit`,
		`field "WirePS" is raw float64 but its name ("ps") claims a unit`,
		`field "wire_mm" is raw float64 but its name ("mm") claims a unit`,
		`parameter "now" is raw uint64 but its name ("now") claims a unit`,
		`parameter "busCycles" is raw int but its name ("cycles") claims a unit`,
		`result "latency" is raw int but its name ("latency") claims a unit`,
	)
}

// timestampCallees are the functions the literal-timestamp fixtures
// call: one with a timestamp parameter, one with a duration.
const timestampCallees = `
func send(now units.Stamp, n int) {}

func wait(d units.Span) {}
`

func TestUnitCheckLiteralTimestampFails(t *testing.T) {
	diags := lintUnits(t, `package sim

import "fix.example/m/units"
`+timestampCallees+`
const start = 0

func bad() {
	send(0, 1)
	send(start+1, 1)
	send((2 * 3), 1)
	// unitcheck:timestamp
	send(0, 2)
}
`)
	expectDiags(t, diags,
		"untyped constant passed as a units.Stamp timestamp",
		"untyped constant passed as a units.Stamp timestamp",
		"untyped constant passed as a units.Stamp timestamp",
		"unitcheck:timestamp marker is missing a reason",
		"untyped constant passed as a units.Stamp timestamp")
}

func TestUnitCheckLiteralTimestampPasses(t *testing.T) {
	diags := lintUnits(t, `package sim

import "fix.example/m/units"
`+timestampCallees+`
const origin units.Stamp = 0

func good(now units.Stamp, d units.Span) {
	send(now, 0)            // a literal count is not a timestamp
	send(now.Add(d), 1)     // a real clock
	send(units.Stamp(0), 1) // the conversion names the unit
	send(origin, 1)         // so does a typed constant
	wait(3)                 // a literal duration is a span
	// unitcheck:timestamp a replayed trace starts at cycle 0
	send(0, 1)
	send(0, 2) // unitcheck:timestamp same-line audit
}
`)
	expectDiags(t, diags)
}

func TestUnitCheckNoUnitsNoDiagnostics(t *testing.T) {
	// A module with no marked unit types (every other analyzer fixture)
	// must pass untouched, whatever its names look like.
	diags := lintFixture(t, map[string]string{
		"internal/sim/sim.go": `package sim

func run(now uint64, latency int) uint64 { return now + uint64(latency) }
`,
	}, NewUnitCheck())
	expectDiags(t, diags)
}

func TestNameWords(t *testing.T) {
	cases := map[string][]string{
		"hitLatency": {"hit", "latency"},
		"WirePS":     {"wire", "ps"},
		"PSValue":    {"ps", "value"},
		"wire_mm":    {"wire", "mm"},
		"now":        {"now"},
		"Comm":       {"comm"},
		"TagMM":      {"tag", "mm"},
		"busCycles":  {"bus", "cycles"},
	}
	for in, want := range cases {
		if got := nameWords(in); !reflect.DeepEqual(got, want) {
			t.Errorf("nameWords(%q) = %v, want %v", in, got, want)
		}
	}
}
