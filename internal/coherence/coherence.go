// Package coherence defines the cache-coherence state machines used by
// the simulator: the invalidation-based 4-state MESI protocol [21] that
// the private-cache baseline snoops with, the paper's 5-state MESIC
// extension (Figure 4) whose communication state C lets multiple
// processors share a dirty block for in-situ communication, and the
// Dragon-style write-update protocol §3.2 argues against.
//
// The transitions are pure functions over (state, event, bus signals),
// tested against the paper's diagram, model-checked by internal/protocheck
// and written nowhere else: the private caches in internal/l2 drive MESI
// or the update protocol, and CMP-NuRAPID in internal/core drives MESIC
// (MESI with in-situ communication off) for every state change around
// its data movement.
package coherence

import "fmt"

// State is a coherence state. The zero value is Invalid.
type State int8

const (
	// Invalid: no copy.
	Invalid State = iota
	// Shared: clean copy, other copies may exist.
	Shared
	// Exclusive: clean copy, no other copies. The paper's placement
	// policies identify private blocks by E (§3.3.1).
	Exclusive
	// Modified: dirty copy, only one tag copy exists.
	Modified
	// Communication: CMP-NuRAPID's added state — a dirty block with
	// multiple tag copies pointing at a single data copy. Writers write
	// it and readers read it without coherence misses (§3.2).
	Communication
	// Owned: the update protocol's shared-dirty owner (Dragon's Sm,
	// MOESI's O) — the last writer of a block other caches also hold,
	// responsible for writing it back.
	Owned
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Communication:
		return "C"
	case Owned:
		return "O"
	}
	return fmt.Sprintf("State(%d)", int8(s))
}

// Dirty reports whether the state holds a dirty block. The paper's
// dirty bus signal is asserted by tag arrays holding M or C copies (and,
// under the update protocol, by the O owner).
func (s State) Dirty() bool { return s == Modified || s == Communication || s == Owned }

// Valid reports whether the state holds any copy.
func (s State) Valid() bool { return s != Invalid }

// PrivateBlock reports whether the block is unshared from the
// replacement policy's perspective (the paper's replacement order is
// invalid, private, shared; §3.3.2). M is dirty-private, E is
// clean-private; S, C and O are shared.
func (s State) PrivateBlock() bool { return s == Exclusive || s == Modified }

// ProcOp is a processor-side request.
type ProcOp int8

const (
	PrRd ProcOp = iota
	PrWr
)

func (op ProcOp) String() string {
	if op == PrRd {
		return "PrRd"
	}
	return "PrWr"
}

// BusOp is a transaction observed on the snoopy bus.
type BusOp int8

const (
	BusNone BusOp = iota
	BusRd
	BusRdX
	BusUpg
	// BusRepl is CMP-NuRAPID's replacement broadcast (§3.1): sharers
	// pointing at the replaced data frame invalidate their tag entries.
	BusRepl
)

func (op BusOp) String() string {
	switch op {
	case BusNone:
		return "-"
	case BusRd:
		return "BusRd"
	case BusRdX:
		return "BusRdX"
	case BusUpg:
		return "BusUpg"
	case BusRepl:
		return "BusRepl"
	}
	return fmt.Sprintf("BusOp(%d)", int8(op)) // hotpath:alloc only an out-of-range op formats; every issued op has a constant name
}

// Signals carries the wired-OR bus response lines sampled by a
// requester: Shared is MESI's shared line (a clean copy exists
// elsewhere); Dirty is the paper's added dirty line (an M or C copy
// exists elsewhere, §3.2).
type Signals struct {
	Shared bool
	Dirty  bool
}

// SnoopAction is what a snooping cache must do besides changing state.
type SnoopAction int8

const (
	// None: no data action.
	None SnoopAction = iota
	// Flush: supply the dirty block (cache-to-cache transfer).
	Flush
	// FlushClean: supply a clean block (the paper's Flush', an
	// optimization where a clean owner responds instead of memory).
	FlushClean
	// InvalidateL1: CMP-NuRAPID C-state sharers observing a write must
	// drop stale L1 copies while keeping their L2 tag copy (§3.2); an
	// update-protocol sharer takes the write into its L2 copy the same
	// way.
	InvalidateL1
)

func (a SnoopAction) String() string {
	switch a {
	case None:
		return "-"
	case Flush:
		return "Flush"
	case FlushClean:
		return "Flush'"
	case InvalidateL1:
		return "InvL1"
	}
	return fmt.Sprintf("SnoopAction(%d)", int8(a))
}

// --- MESI (Figure 4a) ---

// MESIProc returns the next state and the bus transaction generated
// when a processor issues op against a block in state s, given the bus
// signals sampled on a miss. It panics on C, which does not exist in
// MESI.
//
// hotpath:root
func MESIProc(s State, op ProcOp, sig Signals) (State, BusOp) {
	switch s {
	case Invalid:
		if op == PrRd {
			if sig.Shared || sig.Dirty {
				return Shared, BusRd
			}
			return Exclusive, BusRd
		}
		return Modified, BusRdX
	case Shared:
		if op == PrRd {
			return Shared, BusNone
		}
		return Modified, BusUpg
	case Exclusive:
		if op == PrRd {
			return Exclusive, BusNone
		}
		return Modified, BusNone // silent upgrade
	case Modified:
		return Modified, BusNone
	default:
		panic("coherence: MESIProc on state " + s.String())
	}
}

// MESISnoop returns the next state and action when a cache holding
// state s observes a bus transaction issued by another cache. It
// panics on inputs the protocol cannot produce: BusNone and BusRepl
// are never snooped (BusRepl is CMP-NuRAPID's tag-layer broadcast,
// handled by the cache model, not the MESI machine), a BusUpg can only
// be issued by an S holder which SWMR forbids from coexisting with E
// or M, and C is not a MESI state. internal/protocheck's BFS over the
// joint N-cache state space re-proves each unreachability claim on
// every run (see docs/PROTOCOL.md), so reaching one of these defaults
// means a cache model drove the state machine outside the protocol —
// exactly the bug worth crashing on.
//
// hotpath:root
func MESISnoop(s State, op BusOp) (State, SnoopAction) {
	switch s {
	case Invalid:
		return Invalid, None
	case Shared:
		switch op {
		case BusRd:
			return Shared, None
		case BusRdX, BusUpg:
			return Invalid, None
		default: // BusNone, BusRepl: protocheck-proven unreachable
			panic("coherence: MESISnoop(" + s.String() + ", " + op.String() + "): unreachable snoop input")
		}
	case Exclusive:
		switch op {
		case BusRd:
			return Shared, FlushClean
		case BusRdX:
			return Invalid, FlushClean
		default: // BusNone, BusUpg, BusRepl: protocheck-proven unreachable
			panic("coherence: MESISnoop(" + s.String() + ", " + op.String() + "): unreachable snoop input")
		}
	case Modified:
		switch op {
		case BusRd:
			return Shared, Flush // the MESI M→S arc MESIC deletes
		case BusRdX:
			return Invalid, Flush
		default: // BusNone, BusUpg, BusRepl: protocheck-proven unreachable
			panic("coherence: MESISnoop(" + s.String() + ", " + op.String() + "): unreachable snoop input")
		}
	default:
		panic("coherence: MESISnoop on state " + s.String())
	}
}

// --- MESIC (Figure 4b) ---

// MESICProc returns the next state and bus transaction for the paper's
// MESIC protocol. Differences from MESI (§3.2):
//
//   - I + PrRd with the dirty signal asserted → C via BusRd: the reader
//     joins the communication group (and, in the cache model, makes the
//     single new data copy in its closest d-group).
//   - I + PrWr with the dirty signal asserted → C via BusRdX: the
//     writer joins without making a data copy, so the copy stays close
//     to the reader(s).
//   - C + PrRd → C with no bus traffic (the in-situ read).
//   - C + PrWr → C via write-through plus BusUpg so C sharers
//     invalidate stale L1 copies. (The C self-loop in Figure 4b is
//     labelled PrWr/WrThru+BusUpg; §3.2's prose calls the transaction
//     BusRdX — both are invalidating broadcasts; we follow the figure.)
//
// hotpath:root
func MESICProc(s State, op ProcOp, sig Signals) (State, BusOp) {
	switch s {
	case Invalid:
		if sig.Dirty {
			if op == PrRd {
				return Communication, BusRd
			}
			return Communication, BusRdX
		}
		return MESIProc(s, op, sig)
	case Communication:
		if op == PrRd {
			return Communication, BusNone
		}
		return Communication, BusUpg
	case Shared, Exclusive, Modified:
		return MESIProc(s, op, sig)
	default:
		panic("coherence: MESICProc on state " + s.String())
	}
}

// MESICSnoop returns the next state and action when a MESIC cache
// holding state s observes a bus transaction. Differences from MESI:
//
//   - M + BusRd → C (not S): the M→S arc is deleted; a dirty block that
//     gets read enters communication (arc x in Figure 4b).
//   - M + BusRdX → C: a write miss joining a dirty block forms a
//     communication group rather than stealing exclusive ownership.
//   - C + BusRd → C, supplying the data.
//   - C + BusRdX/BusUpg → C with an L1 invalidation: the sharer keeps
//     its tag copy but must not read a stale L1 copy (§3.2).
//
// There are no transitions out of C other than replacement (§3.2).
//
// Like MESISnoop, inputs the protocol cannot produce panic: BusNone
// and BusRepl are never snooped, and M + BusUpg is unreachable because
// a BusUpg is issued only by an S or C holder, neither of which can
// coexist with M. internal/protocheck re-proves these claims by BFS on
// every run (docs/PROTOCOL.md).
//
// hotpath:root
func MESICSnoop(s State, op BusOp) (State, SnoopAction) {
	switch s {
	case Modified:
		switch op {
		case BusRd:
			return Communication, Flush
		case BusRdX:
			return Communication, Flush
		default: // BusNone, BusUpg, BusRepl: protocheck-proven unreachable
			panic("coherence: MESICSnoop(" + s.String() + ", " + op.String() + "): unreachable snoop input")
		}
	case Communication:
		switch op {
		case BusRd:
			return Communication, Flush
		case BusRdX, BusUpg:
			return Communication, InvalidateL1
		default: // BusNone, BusRepl: protocheck-proven unreachable
			panic("coherence: MESICSnoop(" + s.String() + ", " + op.String() + "): unreachable snoop input")
		}
	case Invalid, Shared, Exclusive:
		return MESISnoop(s, op)
	default:
		panic("coherence: MESICSnoop on state " + s.String())
	}
}

// --- Write-update (Dragon-style, §3.2) ---

// UpdateProc returns the next state and bus transaction for the
// write-update protocol §3.2 weighs against ISC: no write invalidates,
// so readers never take coherence misses, but every write to a block
// other caches hold goes over the bus. Unlike MESI it samples the bus
// signals on write hits too:
//
//   - A read hit changes nothing; a read miss fetches with BusRd into E
//     (no other copy) or S.
//   - A write with other copies present, hit or miss, broadcasts a
//     BusUpg that updates them and leaves the writer the dirty owner O.
//   - A write with no other copy goes to M silently on a hit, and via
//     BusRd on a miss (there is nothing to invalidate, so no BusRdX).
//
// hotpath:root
func UpdateProc(s State, op ProcOp, sig Signals) (State, BusOp) {
	switch s {
	case Invalid, Shared, Exclusive, Modified, Owned:
	default:
		panic("coherence: UpdateProc on state " + s.String())
	}
	others := sig.Shared || sig.Dirty
	switch {
	case op == PrRd && s != Invalid:
		return s, BusNone
	case op == PrRd && others:
		return Shared, BusRd
	case op == PrRd:
		return Exclusive, BusRd
	case others:
		return Owned, BusUpg
	case s == Invalid:
		return Modified, BusRd
	}
	return Modified, BusNone
}

// UpdateSnoop returns the next state and action when an update-protocol
// cache holding state s observes a bus transaction:
//
//   - BusRd: E→S and M→O (the dirty holder keeps write-back duty); S
//     and O stay. Memory is not updated and no copy flushes: the cache
//     model moves the data cache-to-cache from a holder it picks.
//   - BusUpg: every valid copy takes the written data and becomes a
//     clean sharer S, dropping its stale L1 copy (InvalidateL1). The
//     writer is now the only dirty copy.
//
// BusRdX is never issued under this protocol, and BusNone and BusRepl
// are never snooped, so those inputs panic like MESI's unreachable
// ones (internal/protocheck re-proves the claim on every run).
//
// hotpath:root
func UpdateSnoop(s State, op BusOp) (State, SnoopAction) {
	switch s {
	case Invalid:
		return Invalid, None
	case Shared, Exclusive, Modified, Owned:
		switch op {
		case BusRd:
			return afterBusRd[s], None
		case BusUpg:
			return Shared, InvalidateL1
		default: // BusNone, BusRdX, BusRepl: protocheck-proven unreachable
			panic("coherence: UpdateSnoop(" + s.String() + ", " + op.String() + "): unreachable snoop input")
		}
	default:
		panic("coherence: UpdateSnoop on state " + s.String())
	}
}

// afterBusRd is an update-protocol holder's state once another cache's
// read miss has joined it.
var afterBusRd = [...]State{Shared: Shared, Exclusive: Shared, Modified: Owned, Owned: Owned}
