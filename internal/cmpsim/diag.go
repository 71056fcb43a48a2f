package cmpsim

import (
	"fmt"
	"strings"

	"cmpnurapid/internal/memsys"
)

// This file defines the structured diagnostic the simulator aborts
// with. It is a panic value (the simulator's public API returns
// Results, and an abort must unwind through arbitrary depth), but a
// structured one: the experiment scheduler recovers it into a
// CellFailure, and tests assert on its fields instead of matching
// message strings. The type carries the `panicmsg:diagnostic` marker —
// the simlint panicmsg rule accepts panics whose argument is a marked
// diagnostic type, and TestDiagnosticsCarryPackagePrefix locks the
// "cmpsim: " prefix the rule would otherwise have enforced.

// CoreSnapshot is one core's architectural state at abort time.
type CoreSnapshot struct {
	Core         int
	Cycles       memsys.Cycle // the core's local clock
	Instructions uint64       // instructions retired since construction
	// OutstandingMiss describes the core's most recent memory
	// reference — with a single outstanding miss per core this is the
	// reference the core is stalled behind.
	OutstandingMiss bool
	Addr            memsys.Addr
	Write           bool
	Instr           bool
	// LineState is the L2 design's coherence/residency state for Addr
	// as seen by this core ("M", "C", "resident", ...), or "?" when
	// the design does not implement memsys.LineStateProber.
	LineState string
}

func (c CoreSnapshot) String() string {
	miss := "no memory reference issued yet"
	if c.OutstandingMiss {
		kind := "read"
		switch {
		case c.Write:
			kind = "write"
		case c.Instr:
			kind = "ifetch"
		}
		miss = fmt.Sprintf("last reference %s %#x (line state %s)", kind, uint64(c.Addr), c.LineState)
	}
	return fmt.Sprintf("core %d: cycle %d, %d instr, %s",
		c.Core, uint64(c.Cycles), c.Instructions, miss)
}

// CycleLimitExceeded is the hard-ceiling abort diagnostic: the global
// clock passed Config.MaxCycles (or the budget derived from the
// instruction quantum). Every op advances its core's clock, so the
// ceiling alone ends every phase that does not complete — the check
// is a one-line comparison with no state machine to get wrong.
//
// panicmsg:diagnostic
type CycleLimitExceeded struct {
	// Limit is the ceiling that was crossed; Derived reports whether
	// it came from the instruction budget rather than an explicit
	// MaxCycles.
	Limit   memsys.Cycle
	Derived bool
	// Now is the clock value that crossed the ceiling.
	Now memsys.Cycle
	// Design and Workload identify the simulation.
	Design   string
	Workload string
	// Cores is the per-core architectural state.
	Cores []CoreSnapshot
	// BusBacklog is the bus arbitration queue depth (cycles a request
	// issued at Now would wait), or -1 when the design has no bus: a
	// saturated bus is one way a clock runs away.
	BusBacklog memsys.Cycles
}

// Error implements error. The message carries the package prefix the
// repository's panic convention requires.
func (c *CycleLimitExceeded) Error() string {
	src := "explicit MaxCycles"
	if c.Derived {
		src = "ceiling derived from instruction budget"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cmpsim: cycle limit exceeded: clock %d passed %d (%s) on %s/%s",
		uint64(c.Now), uint64(c.Limit), src, c.Design, c.Workload)
	for _, cs := range c.Cores {
		b.WriteString("\n  " + cs.String())
	}
	if c.BusBacklog >= 0 {
		fmt.Fprintf(&b, "\n  bus arbitration backlog: %d cycles", int64(c.BusBacklog))
	} else {
		b.WriteString("\n  bus arbitration backlog: n/a (design has no bus)")
	}
	return b.String()
}

func (c *CycleLimitExceeded) String() string { return c.Error() }
