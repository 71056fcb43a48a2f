package l2

import (
	"testing"

	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/rng"
)

func smallUpdate() *Private {
	return newPrivate(Update, 4<<10, 4, 64, 10, bus.Config{Latency: 32, SlotCycles: 4}, 300)
}

// updates counts the write-triggered bus updates: the BusUpg
// transactions of write hits plus the BusUpg labels of write misses.
func updates(p *Private) uint64 { return p.Stats().BusTransactions.Count(memsys.LabelBusUpg) }

func TestUpdateNoInvalidationOnWrite(t *testing.T) {
	p := smallUpdate()
	a := memsys.Addr(0x1000)
	p.Access(0, 0, a, false)
	p.Access(100, 1, a, false) // both hold copies
	// Core 0 writes: core 1's copy is UPDATED, not invalidated.
	p.Access(200, 0, a, true)
	if p.caches[1].Probe(a) == nil {
		t.Fatal("update protocol invalidated the sharer")
	}
	// Core 1's next read is a hit — no coherence miss.
	r := p.Access(300, 1, a, false)
	if r.Category != memsys.Hit {
		t.Errorf("sharer read after update: %v, want hit", r.Category)
	}
	p.CheckInvariants()
}

func TestUpdateBroadcastCostsBus(t *testing.T) {
	p := smallUpdate()
	a := memsys.Addr(0x1000)
	p.Access(0, 0, a, false)
	p.Access(100, 1, a, false)
	before := updates(p)
	r := p.Access(200, 0, a, true)
	if updates(p) != before+1 {
		t.Fatalf("write to shared block sent %d updates, want 1", updates(p)-before)
	}
	// The update's full bus latency lands on the writer's critical path.
	if r.Latency < 10+32 {
		t.Errorf("write latency %d does not include the bus update", r.Latency)
	}
	// Writes to exclusive blocks are free of bus traffic.
	b := memsys.Addr(0x2000)
	p.Access(300, 2, b, true)
	upd := updates(p)
	p.Access(400, 2, b, true)
	if updates(p) != upd {
		t.Error("write to exclusive block broadcast an update")
	}
}

func TestUpdateSingleDirtyOwner(t *testing.T) {
	p := smallUpdate()
	a := memsys.Addr(0x3000)
	p.Access(0, 0, a, true)
	p.Access(100, 1, a, false)
	p.Access(200, 1, a, true) // ownership moves to core 1
	p.Access(300, 0, a, true) // and back
	p.CheckInvariants()
}

func TestUpdateKeepsMultipleCopies(t *testing.T) {
	// The capacity cost §3.2 names: every reader keeps a full copy.
	p := smallUpdate()
	a := memsys.Addr(0x1000)
	for c := 0; c < 4; c++ {
		p.Access(memsys.Cycle(c*100), c, a, false)
	}
	p.Access(500, 0, a, true)
	copies := 0
	for c := 0; c < 4; c++ {
		if p.caches[c].Probe(a) != nil {
			copies++
		}
	}
	if copies != 4 {
		t.Errorf("%d copies after writes, want 4 (updates keep all copies)", copies)
	}
}

func TestUpdateIsCommunicationHook(t *testing.T) {
	type prober interface {
		memsys.L2
		IsCommunication(core int, addr memsys.Addr) bool
	}
	busCfg := bus.Config{Latency: 32, SlotCycles: 4}
	if _, ok := NewPrivateWith(MESI, 4<<10, 4, 64, 10, busCfg, 300).(prober); ok {
		t.Error("MESI private caches carry the write-through probe; every store would pay it")
	}
	p, ok := NewPrivateWith(Update, 4<<10, 4, 64, 10, busCfg, 300).(prober)
	if !ok {
		t.Fatal("update-protocol private caches lack the write-through probe")
	}
	a := memsys.Addr(0x1000)
	p.Access(0, 0, a, false)
	if p.IsCommunication(0, a) {
		t.Error("exclusive block reported write-through")
	}
	p.Access(100, 1, a, false)
	if !p.IsCommunication(0, a) || !p.IsCommunication(1, a) {
		t.Error("shared block not reported write-through")
	}
	if p.IsCommunication(2, a) {
		t.Error("non-holder reported write-through")
	}
}

func TestUpdateRandomInvariants(t *testing.T) {
	p := smallUpdate()
	r := rng.New(31)
	now := memsys.Cycle(0)
	for i := 0; i < 30000; i++ {
		coreID := r.Intn(4)
		var addr memsys.Addr
		if r.Hit(rng.ChanceOf(0.5)) {
			addr = memsys.Addr(0x10000*(coreID+1) + r.Intn(32)*64)
		} else {
			addr = memsys.Addr(0x80000 + r.Intn(16)*64)
		}
		p.Access(now, coreID, addr, r.Hit(rng.ChanceOf(0.3)))
		now += memsys.Cycle(r.Intn(20) + 1)
		if i%5000 == 0 {
			p.CheckInvariants()
		}
	}
	p.CheckInvariants()
	if updates(p) == 0 {
		t.Error("no updates broadcast under shared writes")
	}
}

// TestUpdateEliminatesRWSMissesAtACost is §3.2's argument in one test:
// versus invalidate-based private caches, the update protocol nearly
// removes RWS misses but pays a bus transaction on every shared write.
func TestUpdateEliminatesRWSMissesAtACost(t *testing.T) {
	drive := func(l2 memsys.L2) (rws uint64, busTraffic uint64) {
		now := memsys.Cycle(0)
		a := memsys.Addr(0x3000)
		for i := 0; i < 200; i++ {
			l2.Access(now, 0, a, true)
			now += 50
			for _, reader := range []int{1, 2} {
				l2.Access(now, reader, a, false)
				now += 50
			}
		}
		return l2.Stats().Accesses.Count(memsys.LabelRWS),
			l2.Stats().BusTransactions.Total()
	}
	inv := smallPrivate()
	upd := smallUpdate()
	invRWS, _ := drive(inv)
	updRWS, updBus := drive(upd)
	if updRWS*4 >= invRWS {
		t.Errorf("update RWS misses %d not well below invalidate's %d", updRWS, invRWS)
	}
	if updBus < 200 {
		t.Errorf("update bus traffic %d suspiciously low; every shared write must broadcast", updBus)
	}
}

// TestUpdateWriteMissWithSharer pins the update-protocol write miss
// on a block another core holds: an ROS miss that fetches with one
// BusRd and counts its update as one BusUpg label with no second bus
// transaction (DESIGN.md, key design decision 15). The writer becomes
// the dirty owner O and the former exclusive holder a clean sharer S.
func TestUpdateWriteMissWithSharer(t *testing.T) {
	p := smallUpdate()
	a := memsys.Addr(0x6000)
	p.Access(0, 0, a, false)
	bt := p.Stats().BusTransactions
	rd, rdx, upg := bt.Count(memsys.LabelBusRd), bt.Count(memsys.LabelBusRdX), updates(p)
	if r := p.Access(100, 1, a, true); r.Category != memsys.ROSMiss {
		t.Errorf("write miss beside a clean holder: %v, want ROS miss", r.Category)
	}
	if got := updates(p) - upg; got != 1 {
		t.Errorf("write miss counted %d BusUpg, want 1", got)
	}
	if got := bt.Count(memsys.LabelBusRd) - rd; got != 1 {
		t.Errorf("write miss issued %d BusRd, want 1 (the fetch)", got)
	}
	if got := bt.Count(memsys.LabelBusRdX) - rdx; got != 0 {
		t.Errorf("write miss issued %d BusRdX, want 0", got)
	}
	if st := p.LineState(1, a); st != "O" {
		t.Errorf("writer after its write miss = %q, want O", st)
	}
	if st := p.LineState(0, a); st != "S" {
		t.Errorf("former holder after another core's write miss = %q, want S", st)
	}
	p.CheckInvariants()
}

// TestUpdateLineStateTracksExclusivity: a cold fill with no other
// copies installs exclusive (E, or M when dirty), while a fill that
// finds an existing copy installs shared, and demotes an exclusive
// holder: E to S, M to the dirty owner O. A sharer's write makes it the
// owner and the former owner a clean sharer. LineState is the
// cycle-limit diagnostic's window into those states, so it must be
// exact.
func TestUpdateLineStateTracksExclusivity(t *testing.T) {
	p := smallUpdate()
	a, b := memsys.Addr(0x4000), memsys.Addr(0x5000)
	p.Access(0, 0, a, false)
	if st := p.LineState(0, a); st != "E" {
		t.Errorf("cold read fill state = %q, want E", st)
	}
	p.Access(100, 1, b, true)
	if st := p.LineState(1, b); st != "M" {
		t.Errorf("cold write fill state = %q, want M", st)
	}
	p.Access(200, 2, a, false)
	if st := p.LineState(2, a); st != "S" {
		t.Errorf("second sharer's fill state = %q, want S", st)
	}
	if st := p.LineState(0, a); st != "S" {
		t.Errorf("first holder after a second read = %q, want S", st)
	}
	p.Access(300, 0, a, true)
	if st := p.LineState(0, a); st != "O" {
		t.Errorf("once-exclusive writer beside a sharer = %q, want O", st)
	}
	p.Access(400, 2, a, true)
	if st := p.LineState(2, a); st != "O" {
		t.Errorf("sharer after its write = %q, want O", st)
	}
	if st := p.LineState(0, a); st != "S" {
		t.Errorf("former owner after another sharer's write = %q, want S", st)
	}
	p.Access(500, 3, b, false)
	if st := p.LineState(1, b); st != "O" {
		t.Errorf("dirty holder after another core's read = %q, want O", st)
	}
	p.CheckInvariants()
}
