package protocheck

import (
	"strings"
	"testing"

	"cmpnurapid/internal/coherence"
)

// TestRealProtocolsPassEverything is the headline acceptance check:
// the three shipping protocols survive the complete battery — golden,
// totality, N=2..4 BFS, snoop-panic cross-check, differential — with
// zero violations.
func TestRealProtocolsPassEverything(t *testing.T) {
	r := CheckAll(4)
	for _, v := range r.Violations {
		t.Errorf("%s", v)
	}
	if len(r.Explorations) != 9 { // 3 protocols × N=2,3,4
		t.Errorf("got %d explorations, want 9", len(r.Explorations))
	}
	for i, e := range r.Explorations {
		if want := []string{"MESI", "MESIC", "Update"}[i/3]; e.Protocol.Name != want || e.N != 2+i%3 {
			t.Errorf("exploration %d is %s at N=%d, want %s at N=%d", i, e.Protocol.Name, e.N, want, 2+i%3)
		}
	}
}

func TestExplorationCounts(t *testing.T) {
	// The joint spaces are small enough to pin exactly; a change here
	// means the protocol's reachable space changed, which must be
	// deliberate.
	cases := []struct {
		p      *Protocol
		n      int
		states int
	}{
		{MESI(), 2, 6}, // II, plus {S,E,M} alone and SS via the I+PrRd(shared) path
		{MESI(), 3, 11},
		{MESIC(), 2, 7},  // MESI's plus CC
		{MESIC(), 3, 15}, // C groups of 2 and 3
		{MESIC(), 4, 31},
		{Update(), 2, 8}, // MESI's 6 plus O with an S or an O beside it
		{Update(), 3, 20},
		{Update(), 4, 48},
	}
	for _, c := range cases {
		e := c.p.Explore(c.n)
		if len(e.Violations) != 0 {
			t.Errorf("%s N=%d: unexpected violations %v", c.p.Name, c.n, e.Violations)
		}
		if e.States != c.states {
			t.Errorf("%s N=%d reached %d joint states, want %d", c.p.Name, c.n, e.States, c.states)
		}
	}
}

// TestUnreachableSnoopPairs pins the BFS proof the panicking defaults
// in internal/coherence cite: with 3+ caches, exactly (E, BusUpg) and
// (M, BusUpg) are unreachable in MESI and MESIC, and exactly BusRdX,
// which it never issues, in the update protocol.
func TestUnreachableSnoopPairs(t *testing.T) {
	invalidating := []SnoopPair{
		{coherence.Exclusive, coherence.BusUpg},
		{coherence.Modified, coherence.BusUpg},
	}
	update := []SnoopPair{
		{coherence.Invalid, coherence.BusRdX},
		{coherence.Shared, coherence.BusRdX},
		{coherence.Exclusive, coherence.BusRdX},
		{coherence.Modified, coherence.BusRdX},
		{coherence.Owned, coherence.BusRdX},
	}
	for _, p := range []*Protocol{MESI(), MESIC(), Update()} {
		want := invalidating
		if p.Name == "Update" {
			want = update
		}
		for n := 3; n <= 4; n++ {
			got := p.Explore(n).UnreachableSnoopPairs()
			if len(got) != len(want) {
				t.Errorf("%s N=%d unreachable = %v, want %v", p.Name, n, got, want)
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s N=%d unreachable = %v, want %v", p.Name, n, got, want)
					break
				}
			}
		}
	}
}

// TestMutantsAreCaught is the seeded-mutant acceptance criterion: each
// registered deliberately broken protocol must produce violations of
// the kind the break causes. A mutant registered without an expectation
// row fails, so no seeded mutant ships ungated.
func TestMutantsAreCaught(t *testing.T) {
	want := map[string]struct{ kind, contains string }{
		"restore-m-to-s":        {"safety", "S coexists with C"},
		"exit-c-on-busrdx":      {"c-exit", "left C"},
		"panic-on-shared-busrd": {"panic", "panicked on reachable input"},
		"keep-owner-on-busupg":  {"safety", "more than one dirty owner"},
		"skip-update-on-busupg": {"stale", "did not update"},
	}
	names := MutantNames()
	if len(names) != len(want) {
		t.Errorf("%d registered mutants, %d expectation rows", len(names), len(want))
	}
	for _, name := range names {
		c, ok := want[name]
		if !ok {
			t.Errorf("mutant %s has no expectation row", name)
			continue
		}
		p, err := Mutant(name)
		if err != nil {
			t.Fatal(err)
		}
		r := CheckAll(3, p)
		if r.Ok() {
			t.Errorf("mutant %s passed the checker", name)
			continue
		}
		found := false
		for _, v := range r.Violations {
			if v.Kind == c.kind && strings.Contains(v.Message, c.contains) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("mutant %s: no [%s] violation containing %q in %v", name, c.kind, c.contains, r.Violations)
		}
	}
}

func TestMutantUnknownName(t *testing.T) {
	if _, err := Mutant("nope"); err == nil || !strings.Contains(err.Error(), "restore-m-to-s") {
		t.Errorf("unknown mutant error should list valid names, got %v", err)
	}
}

// TestGoldenCatchesDrift gives CheckGolden a protocol that claims to
// be MESIC but has the deleted arc restored: the Figure 4 encoding
// must flag the exact transition.
func TestGoldenCatchesDrift(t *testing.T) {
	p := MESIC()
	p.Snoop = func(s coherence.State, op coherence.BusOp) (coherence.State, coherence.SnoopAction) {
		if s == coherence.Modified && op == coherence.BusRd {
			return coherence.Shared, coherence.Flush // MESI behaviour
		}
		return coherence.MESICSnoop(s, op)
	}
	violations := CheckGolden(p)
	if len(violations) != 1 {
		t.Fatalf("got %d golden violations, want 1: %v", len(violations), violations)
	}
	if !strings.Contains(violations[0].Message, "MESICSnoop(M, BusRd)") {
		t.Errorf("violation does not name the drifted transition: %s", violations[0])
	}
}

func TestGoldenCleanOnRealProtocols(t *testing.T) {
	for _, p := range []*Protocol{MESI(), MESIC(), Update()} {
		if v := CheckGolden(p); len(v) != 0 {
			t.Errorf("%s drifts from Figure 4: %v", p.Name, v)
		}
	}
}

// TestTotalityCatchesPartialProc covers the totality layer with a
// processor function that panics on an in-protocol input.
func TestTotalityCatchesPartialProc(t *testing.T) {
	p := MESIC()
	p.Name = "MESIC(partial-proc)"
	p.Proc = func(s coherence.State, op coherence.ProcOp, sig coherence.Signals) (coherence.State, coherence.BusOp) {
		if s == coherence.Shared && op == coherence.PrWr {
			panic("protocheck: seeded partial proc")
		}
		return coherence.MESICProc(s, op, sig)
	}
	violations := p.CheckTotality()
	if len(violations) != 4 { // one per signal combination
		t.Fatalf("got %d totality violations, want 4: %v", len(violations), violations)
	}
	for _, v := range violations {
		if v.Kind != "totality" || !strings.Contains(v.Message, "(S, PrWr") {
			t.Errorf("unexpected totality violation: %s", v)
		}
	}
}

// TestDifferentialEquivalence re-runs the lockstep BFS directly and
// also checks it has real coverage: the dirty-free space still
// exercises E, S and M.
func TestDifferentialEquivalence(t *testing.T) {
	states, violations := DiffExplore(4)
	if len(violations) != 0 {
		t.Errorf("MESI/MESIC diverge on dirty-free interleavings: %v", violations)
	}
	if states < 10 {
		t.Errorf("differential explored only %d state pairs; pruning is too aggressive", states)
	}
}

// TestDifferentialCatchesCleanPathDivergence seeds a divergence on a
// clean-sharing path (E + BusRd flushes to I instead of S) and checks
// the lockstep BFS — not just the invariants — would see it. Because
// DiffExplore is fixed to the shipping protocols, this drives the
// internals via stepLockstep.
func TestDifferentialCatchesCleanPathDivergence(t *testing.T) {
	mutant := MESIC()
	mutant.Snoop = func(s coherence.State, op coherence.BusOp) (coherence.State, coherence.SnoopAction) {
		if s == coherence.Exclusive && op == coherence.BusRd {
			return coherence.Invalid, coherence.FlushClean
		}
		return coherence.MESICSnoop(s, op)
	}
	// E holder at cache 0, cache 1 reads: MESI keeps S+S, the mutant
	// drops to I+S.
	st := []coherence.State{coherence.Exclusive, coherence.Invalid}
	sig := signalsFor(st, 1)
	nextA, _, _ := stepLockstep(MESI(), st, 1, coherence.PrRd, sig)
	nextB, _, _ := stepLockstep(mutant, st, 1, coherence.PrRd, sig)
	if key(nextA) == key(nextB) {
		t.Fatal("seeded clean-path divergence not visible to the lockstep step")
	}
}

func TestCheckSafetyDirectly(t *testing.T) {
	mesic := MESIC()
	cases := []struct {
		states []coherence.State
		bad    bool
	}{
		{[]coherence.State{coherence.Invalid, coherence.Invalid}, false},
		{[]coherence.State{coherence.Modified, coherence.Invalid}, false},
		{[]coherence.State{coherence.Communication, coherence.Communication}, false},
		{[]coherence.State{coherence.Shared, coherence.Shared, coherence.Shared}, false},
		{[]coherence.State{coherence.Modified, coherence.Modified}, true},
		{[]coherence.State{coherence.Exclusive, coherence.Shared}, true},
		{[]coherence.State{coherence.Modified, coherence.Shared}, true},
		{[]coherence.State{coherence.Shared, coherence.Communication}, true},
		{[]coherence.State{coherence.Modified, coherence.Communication}, true},
	}
	for _, c := range cases {
		msg := checkSafety(mesic, c.states)
		if (msg != "") != c.bad {
			t.Errorf("checkSafety(%s) = %q, want violation=%v", fmtStates(c.states), msg, c.bad)
		}
	}
	// C is a violation under MESI even though MESIC allows it.
	if msg := checkSafety(MESI(), []coherence.State{coherence.Communication}); !strings.Contains(msg, "not a MESI state") {
		t.Errorf("MESI safety accepted C: %q", msg)
	}
	// The update protocol's owner shares with clean copies, alone.
	update := Update()
	for _, c := range []struct {
		states []coherence.State
		bad    bool
	}{
		{[]coherence.State{coherence.Owned, coherence.Shared, coherence.Shared}, false},
		{[]coherence.State{coherence.Owned, coherence.Owned}, true},
		{[]coherence.State{coherence.Owned, coherence.Modified}, true},
		{[]coherence.State{coherence.Owned, coherence.Exclusive}, true},
	} {
		if msg := checkSafety(update, c.states); (msg != "") != c.bad {
			t.Errorf("Update checkSafety(%s) = %q, want violation=%v", fmtStates(c.states), msg, c.bad)
		}
	}
}

func TestExploreRejectsTinyN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Explore(1) did not panic")
		}
	}()
	MESI().Explore(1)
}
