package protocheck

import (
	"fmt"

	"cmpnurapid/internal/coherence"
)

// golden.go pins the paper's Figure 4, and the update protocol §3.2
// argues against, as data. Each transition
// function has an ordered rule list; the first rule whose state, op
// and signal condition match a concrete input gives the expected
// result ("panic" for inputs the function must reject). CheckGolden
// sweeps the complete input space and reports every divergence between
// internal/coherence and this encoding, so any edit to the protocol —
// deliberate or accidental — must update the golden side in the same
// change or fail CI.

// grule is one golden rule. States, ops and outputs are matched on
// their String() forms ("I", "PrRd", "BusRd", "-", "Flush'", ...);
// "*" is a wildcard. sig is a condition over the sampled bus signals:
// "*" always matches, "d" the dirty line, "s" the shared line, "s|d"
// either.
type grule struct {
	s, op, sig string
	next, out  string // next state and bus op / snoop action; next == "panic" expects a panic
}

func (r grule) matches(s, op string, sig coherence.Signals) bool {
	if r.s != "*" && r.s != s {
		return false
	}
	if r.op != "*" && r.op != op {
		return false
	}
	switch r.sig {
	case "*":
		return true
	case "d":
		return sig.Dirty
	case "s":
		return sig.Shared
	case "s|d":
		return sig.Shared || sig.Dirty
	default:
		panic("protocheck: unknown golden signal condition " + r.sig)
	}
}

// goldenMESIProc encodes the solid arcs of Figure 4a.
var goldenMESIProc = []grule{
	{"I", "PrRd", "s|d", "S", "BusRd"},
	{"I", "PrRd", "*", "E", "BusRd"},
	{"I", "PrWr", "*", "M", "BusRdX"},
	{"S", "PrRd", "*", "S", "-"},
	{"S", "PrWr", "*", "M", "BusUpg"},
	{"E", "PrRd", "*", "E", "-"},
	{"E", "PrWr", "*", "M", "-"}, // silent upgrade
	{"M", "*", "*", "M", "-"},
	{"C", "*", "*", "panic", ""}, // C is not a MESI state
	{"O", "*", "*", "panic", ""}, // nor is O
}

// goldenMESISnoop encodes the dotted arcs of Figure 4a plus the
// protocheck-proven-unreachable inputs, which must panic.
var goldenMESISnoop = []grule{
	{"I", "*", "*", "I", "-"},
	{"S", "BusRd", "*", "S", "-"},
	{"S", "BusRdX", "*", "I", "-"},
	{"S", "BusUpg", "*", "I", "-"},
	{"S", "*", "*", "panic", ""},
	{"E", "BusRd", "*", "S", "Flush'"},
	{"E", "BusRdX", "*", "I", "Flush'"},
	{"E", "*", "*", "panic", ""},
	{"M", "BusRd", "*", "S", "Flush"}, // the M→S arc MESIC deletes
	{"M", "BusRdX", "*", "I", "Flush"},
	{"M", "*", "*", "panic", ""},
	{"C", "*", "*", "panic", ""},
	{"O", "*", "*", "panic", ""},
}

// goldenMESICProc encodes the solid arcs of Figure 4b: the dirty line
// steers misses into C, and C self-loops on both processor ops.
var goldenMESICProc = []grule{
	{"I", "PrRd", "d", "C", "BusRd"},  // reader joins the communication group
	{"I", "PrWr", "d", "C", "BusRdX"}, // writer joins without making a copy
	{"I", "PrRd", "s", "S", "BusRd"},
	{"I", "PrRd", "*", "E", "BusRd"},
	{"I", "PrWr", "*", "M", "BusRdX"},
	{"S", "PrRd", "*", "S", "-"},
	{"S", "PrWr", "*", "M", "BusUpg"},
	{"E", "PrRd", "*", "E", "-"},
	{"E", "PrWr", "*", "M", "-"},
	{"M", "*", "*", "M", "-"},
	{"C", "PrRd", "*", "C", "-"},      // in-situ read, no bus traffic
	{"C", "PrWr", "*", "C", "BusUpg"}, // write-through + invalidating broadcast
	{"O", "*", "*", "panic", ""},      // O is not a MESIC state
}

// goldenMESICSnoop encodes the dotted arcs of Figure 4b. The deleted
// M→S arc shows as M + BusRd → C; there are no transitions out of C.
var goldenMESICSnoop = []grule{
	{"I", "*", "*", "I", "-"},
	{"S", "BusRd", "*", "S", "-"},
	{"S", "BusRdX", "*", "I", "-"},
	{"S", "BusUpg", "*", "I", "-"},
	{"S", "*", "*", "panic", ""},
	{"E", "BusRd", "*", "S", "Flush'"},
	{"E", "BusRdX", "*", "I", "Flush'"},
	{"E", "*", "*", "panic", ""},
	{"M", "BusRd", "*", "C", "Flush"}, // arc x: M enters C instead of S
	{"M", "BusRdX", "*", "C", "Flush"},
	{"M", "*", "*", "panic", ""},
	{"C", "BusRd", "*", "C", "Flush"},
	{"C", "BusRdX", "*", "C", "InvL1"},
	{"C", "BusUpg", "*", "C", "InvL1"},
	{"C", "*", "*", "panic", ""},
	{"O", "*", "*", "panic", ""},
}

// goldenUpdateProc encodes the write-update protocol's requester side:
// writes with other copies present update them through a BusUpg and
// leave the writer the dirty owner O; writes with none go to M.
var goldenUpdateProc = []grule{
	{"C", "*", "*", "panic", ""}, // C is not an update-protocol state
	{"I", "PrRd", "s|d", "S", "BusRd"},
	{"I", "PrRd", "*", "E", "BusRd"},
	{"I", "PrWr", "s|d", "O", "BusUpg"}, // a write miss with sharers updates them
	{"I", "PrWr", "*", "M", "BusRd"},    // nothing to invalidate: no BusRdX
	{"S", "PrRd", "*", "S", "-"},
	{"E", "PrRd", "*", "E", "-"},
	{"M", "PrRd", "*", "M", "-"},
	{"O", "PrRd", "*", "O", "-"},
	{"*", "PrWr", "s|d", "O", "BusUpg"}, // the per-write bus update §3.2 charges
	{"*", "PrWr", "*", "M", "-"},        // no other copy: silent
}

// goldenUpdateSnoop: a read joining a block keeps the dirty holder the
// owner; a write's BusUpg turns every other copy into an updated clean
// sharer. The protocol never issues BusRdX.
var goldenUpdateSnoop = []grule{
	{"I", "*", "*", "I", "-"},
	{"C", "*", "*", "panic", ""},
	{"*", "-", "*", "panic", ""}, // BusNone
	{"*", "BusRdX", "*", "panic", ""},
	{"*", "BusRepl", "*", "panic", ""},
	{"E", "BusRd", "*", "S", "-"},
	{"M", "BusRd", "*", "O", "-"},
	{"S", "BusRd", "*", "S", "-"},
	{"O", "BusRd", "*", "O", "-"},
	{"*", "BusUpg", "*", "S", "InvL1"},
}

// goldenFor returns the rule lists for a protocol by name.
func goldenFor(name string) (proc, snoop []grule, ok bool) {
	switch name {
	case "MESI":
		return goldenMESIProc, goldenMESISnoop, true
	case "MESIC":
		return goldenMESICProc, goldenMESICSnoop, true
	case "Update":
		return goldenUpdateProc, goldenUpdateSnoop, true
	}
	return nil, nil, false
}

func lookupRule(rules []grule, s, op string, sig coherence.Signals) (grule, bool) {
	for _, r := range rules {
		if r.matches(s, op, sig) {
			return r, true
		}
	}
	return grule{}, false
}

// CheckGolden sweeps the complete input space of p's transition
// functions and reports every divergence from its golden encoding.
// Protocols without a golden table (mutants) return nil.
func CheckGolden(p *Protocol) []Violation {
	procRules, snoopRules, ok := goldenFor(p.Name)
	if !ok {
		return nil
	}
	var violations []Violation
	drift := func(format string, args ...any) {
		if len(violations) < maxViolations {
			violations = append(violations, Violation{Kind: "golden", Message: fmt.Sprintf(format, args...)})
		}
	}

	for _, s := range allStates {
		for _, op := range procOps {
			for _, sig := range allSignals {
				rule, found := lookupRule(procRules, s.String(), op.String(), sig)
				if !found {
					drift("%sProc(%v, %v, %+v): no golden rule covers this input", p.Name, s, op, sig)
					continue
				}
				next, bus, panicMsg := callProc(p.Proc, s, op, sig)
				got := describeOutcome(next.String(), bus.String(), panicMsg)
				want := describeOutcome(rule.next, rule.out, panicExpected(rule))
				if got != want {
					drift("%sProc(%v, %v, %+v) = %s, the golden encoding says %s", p.Name, s, op, sig, got, want)
				}
			}
		}
		for _, op := range allBusOps {
			rule, found := lookupRule(snoopRules, s.String(), op.String(), coherence.Signals{})
			if !found {
				drift("%sSnoop(%v, %v): no golden rule covers this input", p.Name, s, op)
				continue
			}
			next, act, panicMsg := callSnoop(p.Snoop, s, op)
			got := describeOutcome(next.String(), act.String(), panicMsg)
			want := describeOutcome(rule.next, rule.out, panicExpected(rule))
			if got != want {
				drift("%sSnoop(%v, %v) = %s, the golden encoding says %s", p.Name, s, op, got, want)
			}
		}
	}
	return violations
}

func panicExpected(r grule) string {
	if r.next == "panic" {
		return "panic"
	}
	return ""
}

// describeOutcome canonicalizes a transition result for comparison:
// any panic collapses to "panic" (the message is informational, not
// part of the protocol).
func describeOutcome(next, out, panicMsg string) string {
	if panicMsg != "" {
		return "panic"
	}
	return "(" + next + ", " + out + ")"
}
