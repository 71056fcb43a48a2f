package coherence

import "testing"

// TestMESIProcTransitions checks the solid arcs of the paper's
// Figure 4a.
func TestMESIProcTransitions(t *testing.T) {
	cases := []struct {
		s       State
		op      ProcOp
		sig     Signals
		wantS   State
		wantBus BusOp
	}{
		// I -- PrRd/BusRd --> S (shared signal) or E (no sharers).
		{Invalid, PrRd, Signals{Shared: true}, Shared, BusRd},
		{Invalid, PrRd, Signals{Dirty: true}, Shared, BusRd},
		{Invalid, PrRd, Signals{}, Exclusive, BusRd},
		// I -- PrWr/BusRdX --> M.
		{Invalid, PrWr, Signals{}, Modified, BusRdX},
		{Invalid, PrWr, Signals{Shared: true}, Modified, BusRdX},
		// S -- PrRd/-- --> S; S -- PrWr/BusUpg --> M.
		{Shared, PrRd, Signals{}, Shared, BusNone},
		{Shared, PrWr, Signals{}, Modified, BusUpg},
		// E -- PrRd/-- --> E; E -- PrWr/-- --> M (silent).
		{Exclusive, PrRd, Signals{}, Exclusive, BusNone},
		{Exclusive, PrWr, Signals{}, Modified, BusNone},
		// M -- PrRd,PrWr/-- --> M.
		{Modified, PrRd, Signals{}, Modified, BusNone},
		{Modified, PrWr, Signals{}, Modified, BusNone},
	}
	for _, c := range cases {
		gotS, gotBus := MESIProc(c.s, c.op, c.sig)
		if gotS != c.wantS || gotBus != c.wantBus {
			t.Errorf("MESIProc(%v, %v, %+v) = (%v, %v), want (%v, %v)",
				c.s, c.op, c.sig, gotS, gotBus, c.wantS, c.wantBus)
		}
	}
}

// TestMESISnoopTransitions checks the dotted arcs of Figure 4a.
func TestMESISnoopTransitions(t *testing.T) {
	cases := []struct {
		s       State
		op      BusOp
		wantS   State
		wantAct SnoopAction
	}{
		{Invalid, BusRd, Invalid, None},
		{Invalid, BusRdX, Invalid, None},
		{Shared, BusRd, Shared, None},
		{Shared, BusRdX, Invalid, None},
		{Shared, BusUpg, Invalid, None},
		{Exclusive, BusRd, Shared, FlushClean},
		{Exclusive, BusRdX, Invalid, FlushClean},
		{Modified, BusRd, Shared, Flush}, // the arc MESIC deletes
		{Modified, BusRdX, Invalid, Flush},
	}
	for _, c := range cases {
		gotS, gotAct := MESISnoop(c.s, c.op)
		if gotS != c.wantS || gotAct != c.wantAct {
			t.Errorf("MESISnoop(%v, %v) = (%v, %v), want (%v, %v)",
				c.s, c.op, gotS, gotAct, c.wantS, c.wantAct)
		}
	}
}

func TestMESIProcPanicsOnC(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MESIProc on C did not panic")
		}
	}()
	MESIProc(Communication, PrRd, Signals{})
}

// TestMESICReadMissOnDirty checks §3.2: "When a read miss occurs and a
// dirty copy (either M or C) already exists ... All the sharers enter
// (or remain in) C".
func TestMESICReadMissOnDirty(t *testing.T) {
	gotS, gotBus := MESICProc(Invalid, PrRd, Signals{Dirty: true})
	if gotS != Communication || gotBus != BusRd {
		t.Errorf("I+PrRd(dirty) = (%v, %v), want (C, BusRd)", gotS, gotBus)
	}
	// The M holder observing the BusRd enters C, flushing.
	snoopS, act := MESICSnoop(Modified, BusRd)
	if snoopS != Communication || act != Flush {
		t.Errorf("M+BusRd = (%v, %v), want (C, Flush)", snoopS, act)
	}
	// Existing C sharers remain in C.
	snoopS, _ = MESICSnoop(Communication, BusRd)
	if snoopS != Communication {
		t.Errorf("C+BusRd -> %v, want C", snoopS)
	}
}

// TestMESICNoMtoS checks that the MESI M→S transition does not exist in
// MESIC ("an M block transits to C, instead of going to S, upon seeing
// a read request on the bus").
func TestMESICNoMtoS(t *testing.T) {
	if s, _ := MESICSnoop(Modified, BusRd); s == Shared {
		t.Error("MESIC still has the deleted M->S arc")
	}
}

// TestMESICWriteMissOnDirty checks §3.2: "When a writer does not find
// the block in its tag array and the block is present in C in other tag
// arrays, the writer does not make a copy ... the writer enters C."
func TestMESICWriteMissOnDirty(t *testing.T) {
	gotS, gotBus := MESICProc(Invalid, PrWr, Signals{Dirty: true})
	if gotS != Communication || gotBus != BusRdX {
		t.Errorf("I+PrWr(dirty) = (%v, %v), want (C, BusRdX)", gotS, gotBus)
	}
}

// TestMESICInSituAccess checks that reads and writes to a C block incur
// no coherence state change, and that writes broadcast an invalidating
// transaction for L1 copies.
func TestMESICInSituAccess(t *testing.T) {
	if s, b := MESICProc(Communication, PrRd, Signals{}); s != Communication || b != BusNone {
		t.Errorf("C+PrRd = (%v, %v), want (C, -)", s, b)
	}
	s, b := MESICProc(Communication, PrWr, Signals{})
	if s != Communication {
		t.Errorf("C+PrWr -> %v, want C", s)
	}
	if b == BusNone {
		t.Error("C+PrWr must broadcast an invalidating transaction (WrThru+BusUpg)")
	}
	// A C sharer observing it stays in C but invalidates its L1 copy.
	snoopS, act := MESICSnoop(Communication, b)
	if snoopS != Communication || act != InvalidateL1 {
		t.Errorf("C snooping %v = (%v, %v), want (C, InvL1)", b, snoopS, act)
	}
}

// TestMESICNoExitFromC checks §3.2: "There are no transitions out of C
// other than those due to replacements."
func TestMESICNoExitFromC(t *testing.T) {
	for _, op := range []ProcOp{PrRd, PrWr} {
		if s, _ := MESICProc(Communication, op, Signals{}); s != Communication {
			t.Errorf("C+%v left C for %v", op, s)
		}
	}
	for _, op := range []BusOp{BusRd, BusRdX, BusUpg} {
		if s, _ := MESICSnoop(Communication, op); s != Communication {
			t.Errorf("C snooping %v left C for %v", op, s)
		}
	}
}

// TestMESICFallsBackToMESI checks that transitions the paper does not
// modify behave exactly as in MESI.
func TestMESICFallsBackToMESI(t *testing.T) {
	procCases := []struct {
		s   State
		op  ProcOp
		sig Signals
	}{
		{Invalid, PrRd, Signals{}},
		{Invalid, PrRd, Signals{Shared: true}},
		{Invalid, PrWr, Signals{}},
		{Shared, PrRd, Signals{}},
		{Shared, PrWr, Signals{}},
		{Exclusive, PrWr, Signals{}},
	}
	for _, c := range procCases {
		mesiS, mesiB := MESIProc(c.s, c.op, c.sig)
		mesicS, mesicB := MESICProc(c.s, c.op, c.sig)
		if mesiS != mesicS || mesiB != mesicB {
			t.Errorf("MESIC diverges from MESI on (%v, %v, %+v): (%v,%v) vs (%v,%v)",
				c.s, c.op, c.sig, mesicS, mesicB, mesiS, mesiB)
		}
	}
	snoopCases := []struct {
		s  State
		op BusOp
	}{
		{Shared, BusRd}, {Shared, BusRdX}, {Shared, BusUpg},
		{Exclusive, BusRd}, {Exclusive, BusRdX},
		{Invalid, BusRd},
	}
	for _, c := range snoopCases {
		mesiS, mesiA := MESISnoop(c.s, c.op)
		mesicS, mesicA := MESICSnoop(c.s, c.op)
		if mesiS != mesicS || mesiA != mesicA {
			t.Errorf("MESIC snoop diverges from MESI on (%v, %v)", c.s, c.op)
		}
	}
}

// TestDirtySignal checks which states assert the paper's dirty line.
func TestDirtySignal(t *testing.T) {
	for s, want := range map[State]bool{
		Invalid: false, Shared: false, Exclusive: false,
		Modified: true, Communication: true, Owned: true,
	} {
		if got := s.Dirty(); got != want {
			t.Errorf("%v.Dirty() = %v, want %v", s, got, want)
		}
	}
}

func TestPrivateBlock(t *testing.T) {
	for s, want := range map[State]bool{
		Invalid: false, Shared: false, Exclusive: true,
		Modified: true, Communication: false, Owned: false,
	} {
		if got := s.PrivateBlock(); got != want {
			t.Errorf("%v.PrivateBlock() = %v, want %v", s, got, want)
		}
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		Invalid: "I", Shared: "S", Exclusive: "E",
		Modified: "M", Communication: "C", Owned: "O",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", int8(s), s.String(), w)
		}
	}
	if BusRepl.String() != "BusRepl" || PrWr.String() != "PrWr" || Flush.String() != "Flush" {
		t.Error("enum String() methods broken")
	}
}

// TestMESIInvariantSingleOwner exercises a random 3-cache system
// driving MESI transitions and checks the protocol invariant: at most
// one M/E copy, and M never coexists with any other valid copy.
func TestMESIInvariantSingleOwner(t *testing.T) {
	states := [3]State{}
	step := func(cache int, op ProcOp) {
		// Sample signals from the other caches.
		var sig Signals
		for i, s := range states {
			if i != cache {
				sig.Shared = sig.Shared || s == Shared || s == Exclusive
				sig.Dirty = sig.Dirty || s == Modified
			}
		}
		next, busOp := MESIProc(states[cache], op, sig)
		if busOp != BusNone {
			for i := range states {
				if i != cache {
					states[i], _ = MESISnoop(states[i], busOp)
				}
			}
		}
		states[cache] = next
	}
	// Deterministic pseudo-random walk over ops and caches.
	seed := uint64(12345)
	for i := 0; i < 10000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		cache := int(seed>>33) % 3
		op := PrRd
		if seed>>62&1 == 1 {
			op = PrWr
		}
		step(cache, op)

		owners, valids := 0, 0
		for _, s := range states {
			if s == Modified || s == Exclusive {
				owners++
			}
			if s.Valid() {
				valids++
			}
		}
		if owners > 1 {
			t.Fatalf("step %d: %d exclusive owners (states %v)", i, owners, states)
		}
		for _, s := range states {
			if s == Modified && valids > 1 {
				t.Fatalf("step %d: M coexists with other copies (states %v)", i, states)
			}
		}
	}
}

// TestMESICInvariantDirtySharing runs the same random walk under MESIC
// and checks the extended invariant: M is still exclusive, but C may be
// shared by many; M and C never coexist (the dirty block has exactly
// one data copy, reached via all the C tags).
func TestMESICInvariantDirtySharing(t *testing.T) {
	states := [4]State{}
	step := func(cache int, op ProcOp) {
		var sig Signals
		for i, s := range states {
			if i != cache {
				sig.Shared = sig.Shared || s == Shared || s == Exclusive
				sig.Dirty = sig.Dirty || s.Dirty()
			}
		}
		next, busOp := MESICProc(states[cache], op, sig)
		if busOp != BusNone {
			for i := range states {
				if i != cache {
					states[i], _ = MESICSnoop(states[i], busOp)
				}
			}
		}
		states[cache] = next
	}
	seed := uint64(999)
	for i := 0; i < 20000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		cache := int(seed>>33) % 4
		op := PrRd
		if seed>>62&1 == 1 {
			op = PrWr
		}
		step(cache, op)

		m, c, e := 0, 0, 0
		for _, s := range states {
			switch s {
			case Modified:
				m++
			case Communication:
				c++
			case Exclusive:
				e++
			}
		}
		if m > 1 || e > 1 {
			t.Fatalf("step %d: duplicate exclusive states %v", i, states)
		}
		if m > 0 && c > 0 {
			t.Fatalf("step %d: M coexists with C (states %v)", i, states)
		}
		if m == 1 {
			for _, s := range states {
				if s == Shared {
					t.Fatalf("step %d: M coexists with S (states %v)", i, states)
				}
			}
		}
	}
}

// TestUpdateWriteKeepsCopies walks §3.2's update protocol through a
// read-write sharing pattern: the writer's BusUpg updates the reader's
// copy in place instead of invalidating it, the last writer owns the
// block, and a read joining an M copy makes it the owner O.
func TestUpdateWriteKeepsCopies(t *testing.T) {
	type step struct {
		s      State
		op     ProcOp
		sig    Signals
		next   State
		bus    BusOp
		snoops map[State]State // another holder's state before → after the bus op
	}
	for _, c := range []step{
		{Invalid, PrRd, Signals{}, Exclusive, BusRd, nil},
		{Invalid, PrRd, Signals{Shared: true}, Shared, BusRd, map[State]State{Exclusive: Shared, Shared: Shared}},
		{Invalid, PrRd, Signals{Dirty: true}, Shared, BusRd, map[State]State{Modified: Owned, Owned: Owned}},
		{Invalid, PrWr, Signals{}, Modified, BusRd, nil},
		{Invalid, PrWr, Signals{Dirty: true}, Owned, BusUpg, map[State]State{Modified: Shared, Owned: Shared, Shared: Shared}},
		{Shared, PrWr, Signals{Shared: true}, Owned, BusUpg, map[State]State{Shared: Shared}},
		{Shared, PrWr, Signals{}, Modified, BusNone, nil},
		{Owned, PrWr, Signals{}, Modified, BusNone, nil},
		{Owned, PrRd, Signals{Shared: true}, Owned, BusNone, nil},
	} {
		next, bus := UpdateProc(c.s, c.op, c.sig)
		if next != c.next || bus != c.bus {
			t.Errorf("UpdateProc(%v, %v, %+v) = (%v, %v), want (%v, %v)", c.s, c.op, c.sig, next, bus, c.next, c.bus)
		}
		for before, after := range c.snoops {
			got, act := UpdateSnoop(before, bus)
			want := None
			if bus == BusUpg {
				want = InvalidateL1
			}
			if got != after || act != want {
				t.Errorf("UpdateSnoop(%v, %v) = (%v, %v), want (%v, %v)", before, bus, got, act, after, want)
			}
		}
	}
	for _, s := range []State{Shared, Exclusive, Modified, Owned} {
		if _, _, panicked := snoopOrPanic(UpdateSnoop, s, BusRdX); !panicked {
			t.Errorf("UpdateSnoop(%v, BusRdX) returned; the protocol never issues BusRdX", s)
		}
	}
	if _, _, panicked := snoopOrPanic(UpdateSnoop, Communication, BusRd); !panicked {
		t.Error("UpdateSnoop accepted C, which the update protocol does not have")
	}
}
