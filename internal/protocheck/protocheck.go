// Package protocheck is an explicit-state model checker for the
// coherence protocols in internal/coherence. It drives the *actual*
// transition functions — MESIProc/MESISnoop, MESICProc/MESICSnoop and
// UpdateProc/UpdateSnoop, not a re-encoding of them — the same
// functions the simulated caches run: internal/l2's private caches
// drive MESI or the write-update protocol, and CMP-NuRAPID in
// internal/core drives MESIC (MESI with in-situ communication off).
// It checks them in three layers:
//
//  1. Totality: enumerate the complete single-cache input space
//     (State × ProcOp × Signals for the processor side, State × BusOp
//     for the snoop side) and record every result or panic, producing
//     the transition tables published in docs/PROTOCOL.md.
//  2. Reachability: BFS the joint state space of N caches sharing one
//     line under all interleavings of processor operations, checking
//     the paper's safety invariants on every reached state and edge —
//     SWMR (at most one M/E holder, owning alone), at most one dirty
//     owner O, S never coexisting with M, E or C, no copy left stale
//     by a write, no transition out of C except replacement (which the
//     protocol layer does not model), and no panic on any reachable
//     input. The BFS also proves which snoop inputs are
//     unreachable, justifying the panicking defaults in
//     internal/coherence.
//  3. Equivalence: a lockstep BFS of MESI and MESIC restricted to
//     interleavings in which no requester ever samples an asserted
//     dirty line, verifying the two protocols are trace-identical
//     there — MESIC's divergence is confined to dirty sharing, the
//     paper's §3.2 claim.
//
// A golden encoding of the paper's Figure 4 and of the update protocol
// (golden.go) pins the expected transition relation, so any drift in internal/coherence —
// including re-introducing the deleted M→S arc — fails the check.
// The package's own tests are the gate: TestRealProtocolsPassEverything
// runs the whole battery and TestProtocolDoc keeps docs/PROTOCOL.md in
// sync (`go generate ./internal/protocheck` refreshes it).
package protocheck

import (
	"fmt"

	"cmpnurapid/internal/coherence"
)

// Protocol bundles the transition functions of one coherence protocol
// together with the states a cache may legally occupy under it.
type Protocol struct {
	Name   string
	States []coherence.State
	Proc   func(coherence.State, coherence.ProcOp, coherence.Signals) (coherence.State, coherence.BusOp)
	Snoop  func(coherence.State, coherence.BusOp) (coherence.State, coherence.SnoopAction)
}

// MESI returns the 4-state baseline protocol (Figure 4a).
func MESI() *Protocol {
	return &Protocol{
		Name: "MESI",
		States: []coherence.State{
			coherence.Invalid, coherence.Shared, coherence.Exclusive, coherence.Modified,
		},
		Proc:  coherence.MESIProc,
		Snoop: coherence.MESISnoop,
	}
}

// Update returns the Dragon-style write-update protocol §3.2 argues
// against: MESI's states plus the shared-dirty owner O.
func Update() *Protocol {
	return &Protocol{
		Name: "Update",
		States: []coherence.State{
			coherence.Invalid, coherence.Shared, coherence.Exclusive,
			coherence.Modified, coherence.Owned,
		},
		Proc:  coherence.UpdateProc,
		Snoop: coherence.UpdateSnoop,
	}
}

// MESIC returns the paper's 5-state protocol (Figure 4b).
func MESIC() *Protocol {
	return &Protocol{
		Name: "MESIC",
		States: []coherence.State{
			coherence.Invalid, coherence.Shared, coherence.Exclusive,
			coherence.Modified, coherence.Communication,
		},
		Proc:  coherence.MESICProc,
		Snoop: coherence.MESICSnoop,
	}
}

// allStates spans every protocol; the totality scan sweeps every state
// even for MESI so the tables document the out-of-protocol panics.
var allStates = []coherence.State{
	coherence.Invalid, coherence.Shared, coherence.Exclusive,
	coherence.Modified, coherence.Communication, coherence.Owned,
}

var procOps = []coherence.ProcOp{coherence.PrRd, coherence.PrWr}

// allBusOps is the full BusOp domain, including the two values that
// never reach a snoop function (BusNone is the absence of a
// transaction; BusRepl is CMP-NuRAPID's tag-layer broadcast handled by
// the cache model).
var allBusOps = []coherence.BusOp{
	coherence.BusNone, coherence.BusRd, coherence.BusRdX,
	coherence.BusUpg, coherence.BusRepl,
}

// snoopableOps are the transactions another cache can actually place
// on the bus; reachability of (state, op) snoop pairs is judged over
// these.
var snoopableOps = []coherence.BusOp{
	coherence.BusRd, coherence.BusRdX, coherence.BusUpg,
}

// allSignals enumerates the wired-OR response-line combinations, in
// the fixed order used for condition grouping in the tables.
var allSignals = []coherence.Signals{
	{},
	{Dirty: true},
	{Shared: true},
	{Shared: true, Dirty: true},
}

// Violation is one check failure, with enough provenance to reproduce
// it by hand.
type Violation struct {
	Kind    string // "safety", "c-exit", "stale", "panic", "totality", "unreachable", "golden", "differential"
	Message string
}

func (v Violation) String() string { return "[" + v.Kind + "] " + v.Message }

// member reports whether s is one of the protocol's states.
func (p *Protocol) member(s coherence.State) bool {
	for _, ps := range p.States {
		if ps == s {
			return true
		}
	}
	return false
}

// signalsFor samples the bus response lines cache i would see: the
// shared line is asserted by any other clean valid copy, the dirty
// line by any other M or C copy — the same derivation the cache models
// use (internal/l2 signals, internal/core).
func signalsFor(states []coherence.State, i int) coherence.Signals {
	var sig coherence.Signals
	for j, s := range states {
		if j == i || !s.Valid() {
			continue
		}
		if s.Dirty() {
			sig.Dirty = true
		} else {
			sig.Shared = true
		}
	}
	return sig
}

// checkSafety validates one joint state against the protocol
// invariants and returns a description of the first violation, or "".
//
// The invariants (docs/PROTOCOL.md, paper §3.2):
//   - every cache is in a state the protocol defines;
//   - at most one M and at most one E holder (single writer);
//   - an M or E holder coexists with no other valid copy;
//   - at most one O holder (one dirty owner of a shared block);
//   - S never coexists with C (a block is either clean-shared or
//     dirty-shared, never both).
func checkSafety(p *Protocol, states []coherence.State) string {
	var m, e, s, c, o, valid int
	for _, st := range states {
		if !p.member(st) {
			return fmt.Sprintf("state %v is not a %s state", st, p.Name)
		}
		if st.Valid() {
			valid++
		}
		switch st {
		case coherence.Modified:
			m++
		case coherence.Exclusive:
			e++
		case coherence.Shared:
			s++
		case coherence.Communication:
			c++
		case coherence.Owned:
			o++
		case coherence.Invalid:
		default:
			return fmt.Sprintf("unknown state %v", st)
		}
	}
	switch {
	case m > 1:
		return fmt.Sprintf("%d M holders (single-writer violated)", m)
	case e > 1:
		return fmt.Sprintf("%d E holders", e)
	case m == 1 && valid > 1:
		return "M coexists with other valid copies"
	case e == 1 && valid > 1:
		return "E coexists with other valid copies"
	case o > 1:
		return fmt.Sprintf("%d O holders (more than one dirty owner)", o)
	case s > 0 && c > 0:
		return "S coexists with C (clean- and dirty-shared at once)"
	}
	return ""
}

// fmtStates renders a joint state like [I S M I].
func fmtStates(states []coherence.State) string {
	out := "["
	for i, s := range states {
		if i > 0 {
			out += " "
		}
		out += s.String()
	}
	return out + "]"
}
