package protocheck

import (
	"fmt"
	"sort"

	"cmpnurapid/internal/coherence"
)

// SnoopPair is one (holder state, snooped transaction) input to a
// snoop function.
type SnoopPair struct {
	S  coherence.State
	Op coherence.BusOp
}

func (p SnoopPair) String() string { return "(" + p.S.String() + ", " + p.Op.String() + ")" }

// maxViolations caps the number of violations one exploration records;
// a broken protocol repeats the same class of failure across thousands
// of states and the first few are what a human reads.
const maxViolations = 50

// Exploration is the result of a BFS over the joint state space of N
// caches sharing one line.
type Exploration struct {
	Protocol *Protocol
	N        int
	States   int // distinct joint states reached
	Edges    int // transitions taken

	// Reachable records every snoop input some interleaving actually
	// exercised; the complement over States × snoopableOps is the
	// proven-unreachable set.
	Reachable map[SnoopPair]bool

	Violations []Violation
	seen       map[string]bool
}

// Explore BFSes the joint state space of n caches, all starting at I,
// under every interleaving of per-cache PrRd/PrWr operations, checking
// the safety invariants on each reached state, C-monotonicity and
// write propagation on each edge, and that no reachable input panics.
func (p *Protocol) Explore(n int) *Exploration {
	if n < 2 {
		panic("protocheck: Explore needs at least 2 caches")
	}
	e := &Exploration{
		Protocol:  p,
		N:         n,
		Reachable: map[SnoopPair]bool{},
		seen:      map[string]bool{},
	}
	start := make([]coherence.State, n)
	e.visit(start, "initial state")
	queue := [][]coherence.State{start}
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		for i := 0; i < n; i++ {
			for _, op := range procOps {
				next, ok := e.step(st, i, op)
				if !ok {
					continue
				}
				e.Edges++
				provenance := fmt.Sprintf("%s, cache %d issues %v", fmtStates(st), i, op)
				for j := range st {
					if st[j] == coherence.Communication && next[j] != coherence.Communication {
						e.violate("c-exit", "cache %d left C for %v on edge %s (only replacement may exit C)",
							j, next[j], provenance)
					}
				}
				if !e.seen[key(next)] {
					e.visit(next, provenance)
					queue = append(queue, next)
				}
			}
		}
	}
	return e
}

// visit marks a joint state reached and checks its safety.
func (e *Exploration) visit(st []coherence.State, provenance string) {
	e.seen[key(st)] = true
	e.States++
	if msg := checkSafety(e.Protocol, st); msg != "" {
		e.violate("safety", "%s at %s (reached via %s)", msg, fmtStates(st), provenance)
	}
}

// step applies one processor operation by cache i and the induced
// snoops, returning the successor state. ok is false when a transition
// function panicked (recorded as a violation): the edge is dropped so
// the BFS can keep exploring the rest of the space.
//
// A write must leave no stale copy behind: every other copy still
// valid after it is either in C, sharing the writer's single data
// copy, or snooped the write's transaction with InvalidateL1, taking
// the written data (an update protocol's sharers).
func (e *Exploration) step(st []coherence.State, i int, op coherence.ProcOp) (next []coherence.State, ok bool) {
	sig := signalsFor(st, i)
	nextI, busOp, panicMsg := callProc(e.Protocol.Proc, st[i], op, sig)
	if panicMsg != "" {
		e.violate("panic", "%s.Proc(%v, %v, %+v) panicked on reachable input at %s: %s",
			e.Protocol.Name, st[i], op, sig, fmtStates(st), panicMsg)
		return nil, false
	}
	next = make([]coherence.State, len(st))
	copy(next, st)
	next[i] = nextI
	for j := range st {
		if j == i {
			continue
		}
		act := coherence.None
		if busOp != coherence.BusNone {
			e.Reachable[SnoopPair{st[j], busOp}] = true
			nextJ, a, panicMsg := callSnoop(e.Protocol.Snoop, st[j], busOp)
			if panicMsg != "" {
				e.violate("panic", "%s.Snoop(%v, %v) panicked on reachable input at %s (cache %d issued %v): %s",
					e.Protocol.Name, st[j], busOp, fmtStates(st), i, op, panicMsg)
				return nil, false
			}
			next[j], act = nextJ, a
		}
		if op == coherence.PrWr && next[j].Valid() && next[j] != coherence.Communication && act != coherence.InvalidateL1 {
			e.violate("stale", "cache %d keeps a %v copy cache %d's write did not update, at %s",
				j, next[j], i, fmtStates(st))
		}
	}
	return next, true
}

// UnreachableSnoopPairs returns every (state, snoopable op) input no
// interleaving produced, sorted for deterministic output. These are
// the inputs internal/coherence may legitimately panic on.
func (e *Exploration) UnreachableSnoopPairs() []SnoopPair {
	var pairs []SnoopPair
	for _, s := range e.Protocol.States {
		for _, op := range snoopableOps {
			if !e.Reachable[SnoopPair{s, op}] {
				pairs = append(pairs, SnoopPair{s, op})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].S != pairs[j].S {
			return pairs[i].S < pairs[j].S
		}
		return pairs[i].Op < pairs[j].Op
	})
	return pairs
}

func (e *Exploration) violate(kind, format string, args ...any) {
	if len(e.Violations) >= maxViolations {
		return
	}
	v := Violation{Kind: kind, Message: fmt.Sprintf(format, args...)}
	for _, have := range e.Violations {
		if have == v {
			return
		}
	}
	e.Violations = append(e.Violations, v)
}

// key serializes a joint state for the visited set.
func key(st []coherence.State) string {
	b := make([]byte, len(st))
	for i, s := range st {
		b[i] = byte(s)
	}
	return string(b)
}

func callProc(fn func(coherence.State, coherence.ProcOp, coherence.Signals) (coherence.State, coherence.BusOp),
	s coherence.State, op coherence.ProcOp, sig coherence.Signals) (next coherence.State, bus coherence.BusOp, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprint(r)
		}
	}()
	next, bus = fn(s, op, sig)
	return next, bus, ""
}

func callSnoop(fn func(coherence.State, coherence.BusOp) (coherence.State, coherence.SnoopAction),
	s coherence.State, op coherence.BusOp) (next coherence.State, act coherence.SnoopAction, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprint(r)
		}
	}()
	next, act = fn(s, op)
	return next, act, ""
}

// DiffExplore runs MESI and MESIC in lockstep over every interleaving
// in which no requester ever samples an asserted dirty line (in either
// protocol), and verifies the two executions are indistinguishable:
// identical joint states, identical bus transactions, identical snoop
// results. This is §3.2's containment claim — MESIC changes protocol
// behaviour only for dirty sharing — verified over the full pruned
// state space rather than sampled traces.
func DiffExplore(n int) (states int, violations []Violation) {
	mesi, mesic := MESI(), MESIC()
	type pair struct{ a, b []coherence.State }
	start := pair{make([]coherence.State, n), make([]coherence.State, n)}
	seen := map[string]bool{key(start.a) + "|" + key(start.b): true}
	queue := []pair{start}
	states = 1
	addViolation := func(format string, args ...any) {
		if len(violations) < maxViolations {
			violations = append(violations, Violation{Kind: "differential", Message: fmt.Sprintf(format, args...)})
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for i := 0; i < n; i++ {
			sigA, sigB := signalsFor(cur.a, i), signalsFor(cur.b, i)
			if sigA.Dirty || sigB.Dirty {
				continue // dirty sharing: the protocols are allowed to diverge
			}
			if sigA != sigB {
				addViolation("signal divergence at %s vs %s: cache %d samples %+v under MESI, %+v under MESIC",
					fmtStates(cur.a), fmtStates(cur.b), i, sigA, sigB)
				continue
			}
			for _, op := range procOps {
				nextA, busA, panicA := stepLockstep(mesi, cur.a, i, op, sigA)
				nextB, busB, panicB := stepLockstep(mesic, cur.b, i, op, sigB)
				if panicA != "" || panicB != "" {
					addViolation("panic on dirty-free input (%v by cache %d at %s): MESI=%q MESIC=%q",
						op, i, fmtStates(cur.a), panicA, panicB)
					continue
				}
				if busA != busB {
					addViolation("bus divergence: cache %d %v at %s emits %v under MESI but %v under MESIC",
						i, op, fmtStates(cur.a), busA, busB)
				}
				if key(nextA) != key(nextB) {
					addViolation("state divergence after cache %d %v at %s: MESI → %s, MESIC → %s",
						i, op, fmtStates(cur.a), fmtStates(nextA), fmtStates(nextB))
				}
				k := key(nextA) + "|" + key(nextB)
				if !seen[k] {
					seen[k] = true
					states++
					queue = append(queue, pair{nextA, nextB})
				}
			}
		}
	}
	return states, violations
}

// stepLockstep is Exploration.step without the reachability recording,
// for the differential BFS.
func stepLockstep(p *Protocol, st []coherence.State, i int, op coherence.ProcOp, sig coherence.Signals) (next []coherence.State, bus coherence.BusOp, panicMsg string) {
	nextI, busOp, pmsg := callProc(p.Proc, st[i], op, sig)
	if pmsg != "" {
		return nil, coherence.BusNone, pmsg
	}
	next = make([]coherence.State, len(st))
	copy(next, st)
	next[i] = nextI
	if busOp == coherence.BusNone {
		return next, busOp, ""
	}
	for j := range st {
		if j == i {
			continue
		}
		nextJ, _, pmsg := callSnoop(p.Snoop, st[j], busOp)
		if pmsg != "" {
			return nil, busOp, pmsg
		}
		next[j] = nextJ
	}
	return next, busOp, ""
}
