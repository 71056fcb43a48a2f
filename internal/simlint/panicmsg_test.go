package simlint

import "testing"

func TestPanicMsgFlagsMissingPrefix(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/bus/bus.go": `package bus

import "fmt"

func A() { panic("non-positive latency") }

func B(n int) { panic(fmt.Sprintf("bad slot count %d", n)) }

func C(err error) { panic(err) }
`,
	}, NewPanicMsg())
	expectDiags(t, diags,
		`must be a constant string starting with "bus: "`,
		`must be a constant string starting with "bus: "`,
		`must be a constant string starting with "bus: "`,
	)
}

func TestPanicMsgAcceptsConventionalForms(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/bus/bus.go": `package bus

import "fmt"

const cycleMsg = "bus: scheduling cycle"

func A() { panic("bus: non-positive latency") }

func B(n int) { panic(fmt.Sprintf("bus: bad slot count %d", n)) }

func C(label string) { panic("bus: unknown label " + label) }

func D() { panic(cycleMsg) }
`,
		// Outside internal/ the convention is not enforced.
		"cmd/tool/main.go": `package main

func main() { panic("anything goes") }
`,
	}, NewPanicMsg())
	expectDiags(t, diags)
}

func TestPanicMsgAcceptsMarkedDiagnosticTypes(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/guard/diag.go": `package guard

// Overrun is a structured abort diagnostic.
//
// panicmsg:diagnostic
type Overrun struct {
	Now uint64
}

func (p *Overrun) Error() string { return "guard: overrun" }

// Plain is NOT marked: panicking with it stays a violation.
type Plain struct{}
`,
		"internal/sim/sim.go": `package sim

import "fix.example/m/internal/guard"

func Abort(now uint64) {
	panic(&guard.Overrun{Now: now})
}
`,
		"internal/sim/bad.go": `package sim

type local struct{}

func Bad() { panic(local{}) }
`,
	}, NewPanicMsg())
	expectDiags(t, diags, `must be a constant string starting with "sim: "`)
}

func TestPanicMsgMarkedTypeInOwnPackage(t *testing.T) {
	// The declaring package may throw its own diagnostics too.
	diags := lintFixture(t, map[string]string{
		"internal/guard/diag.go": `package guard

// panicmsg:diagnostic
type LimitExceeded struct{ Limit uint64 }

func Check(now, limit uint64) {
	if now > limit {
		panic(&LimitExceeded{Limit: limit})
	}
}
`,
	}, NewPanicMsg())
	expectDiags(t, diags)
}

func TestPanicMsgUsesPackageNameNotDirName(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/l2/private.go": `package l2

func A() { panic("l2: private line in invalid state") }

func B() { panic("private: wrong prefix") }
`,
	}, NewPanicMsg())
	expectDiags(t, diags, `starting with "l2: "`)
}
