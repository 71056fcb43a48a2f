package bus

import (
	"testing"
	"testing/quick"

	"cmpnurapid/internal/memsys"
)

// newBus returns a bus counting into fresh stats.
func newBus(cfg Config) (*Bus, *memsys.L2Stats) {
	s := memsys.NewL2Stats()
	return New(cfg, s), s
}

func TestTransactLatency(t *testing.T) {
	b, _ := newBus(DefaultConfig())
	if got := b.Transact(100, BusRd); got != 132 {
		t.Errorf("first transaction visible at %d, want 132", got)
	}
}

func TestTransactPipelining(t *testing.T) {
	b, s := newBus(Config{Latency: 32, SlotCycles: 4})
	// Two back-to-back transactions at the same cycle: the second waits
	// one slot, not a full latency.
	first := b.Transact(0, BusRd)
	second := b.Transact(0, BusRdX)
	if first != 32 {
		t.Errorf("first = %d, want 32", first)
	}
	if second != 36 {
		t.Errorf("second = %d, want 36 (one slot later)", second)
	}
	if s.BusWait != 4 {
		t.Errorf("BusWait = %d, want 4", s.BusWait)
	}
}

func TestTransactNoContentionWhenSpaced(t *testing.T) {
	b, s := newBus(Config{Latency: 32, SlotCycles: 4})
	b.Transact(0, BusRd)
	if got := b.Transact(10, BusRd); got != 42 {
		t.Errorf("spaced transaction visible at %d, want 42", got)
	}
	if s.BusWait != 0 {
		t.Errorf("BusWait = %d, want 0", s.BusWait)
	}
}

// TestCounts: each issued transaction is counted once, under its
// kind's label, in the stats the bus was built with.
func TestCounts(t *testing.T) {
	b, s := newBus(DefaultConfig())
	b.Transact(0, BusRd)
	b.Transact(0, BusRd)
	b.Transact(0, BusRepl)
	d := s.BusTransactions
	if d.Count(memsys.LabelBusRd) != 2 || d.Count(memsys.LabelBusRepl) != 1 || d.Count(memsys.LabelBusUpg) != 0 {
		t.Errorf("counts wrong: BusRd=%d BusRepl=%d BusUpg=%d",
			d.Count(memsys.LabelBusRd), d.Count(memsys.LabelBusRepl), d.Count(memsys.LabelBusUpg))
	}
	if d.Total() != 3 {
		t.Errorf("total = %d, want 3", d.Total())
	}
	// Two slots of queueing behind the first transaction.
	if s.BusWait != 4+8 {
		t.Errorf("BusWait = %d, want 12", s.BusWait)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero latency did not panic")
		}
	}()
	New(Config{Latency: 0, SlotCycles: 4}, memsys.NewL2Stats())
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		BusRd: memsys.LabelBusRd, BusRdX: memsys.LabelBusRdX, BusUpg: memsys.LabelBusUpg,
		BusRepl: memsys.LabelBusRepl, Kind(99): "Kind(?)",
	}
	for k, w := range want {
		if got := k.String(); got != w {
			t.Errorf("%d.String() = %q, want %q", int(k), got, w)
		}
	}
}

func TestTransactMonotone(t *testing.T) {
	// Property: visibility times never decrease as issue times advance,
	// and a transaction is always visible at least Latency after issue.
	b, _ := newBus(Config{Latency: 32, SlotCycles: 4})
	f := func(deltas []uint8) bool {
		now := memsys.Cycle(0)
		lastVis := memsys.Cycle(0)
		for _, d := range deltas {
			now += memsys.Cycle(d)
			vis := b.Transact(now, BusRd)
			if vis < now+32 || vis < lastVis {
				return false
			}
			lastVis = vis
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPortSerializes(t *testing.T) {
	var p Port
	if got := p.Acquire(10, 6); got != 10 {
		t.Errorf("first acquire starts at %d, want 10", got)
	}
	// Overlapping request must wait for the port.
	if got := p.Acquire(12, 6); got != 16 {
		t.Errorf("overlapping acquire starts at %d, want 16", got)
	}
	// A later request after the port drains starts immediately.
	if got := p.Acquire(100, 6); got != 100 {
		t.Errorf("late acquire starts at %d, want 100", got)
	}
	// Every acquire occupied the port for its full duration: the next
	// free cycle is the last start plus 6.
	if got := p.Acquire(0, 1); got != 106 {
		t.Errorf("acquire after the last access starts at %d, want 106", got)
	}
}

func TestPortZeroValueUsable(t *testing.T) {
	var p Port
	if got := p.Acquire(0, 1); got != 0 {
		t.Errorf("zero-value port first acquire = %d, want 0", got)
	}
}

func TestGrantJitterDelaysGrant(t *testing.T) {
	b, s := newBus(Config{Latency: 32, SlotCycles: 4,
		GrantJitter: func(now memsys.Cycle) memsys.Cycles { return 10 }})
	if got := b.Transact(0, BusRd); got != 42 {
		t.Errorf("jittered transaction visible at %d, want 42 (10 jitter + 32 latency)", got)
	}
	if s.BusWait != 10 {
		t.Errorf("BusWait = %d, want 10 (jitter counts as arbitration wait)", s.BusWait)
	}
}

func TestGrantJitterNilIsBitIdentical(t *testing.T) {
	// The hook's zero value must leave the bus exactly as before the
	// hook existed: same grants, same waits, for the same schedule.
	plain, ps := newBus(Config{Latency: 32, SlotCycles: 4})
	hooked, hs := newBus(Config{Latency: 32, SlotCycles: 4,
		GrantJitter: func(now memsys.Cycle) memsys.Cycles { return 0 }})
	for i := 0; i < 50; i++ {
		now := memsys.Cycle(0).Add(memsys.CyclesOf(i * 3))
		kind := Kind(i % int(BusRepl+1))
		if a, b := plain.Transact(now, kind), hooked.Transact(now, kind); a != b {
			t.Fatalf("step %d: plain %d != zero-jitter %d", i, a, b)
		}
	}
	if ps.BusWait != hs.BusWait {
		t.Errorf("wait cycles diverge: %d vs %d", ps.BusWait, hs.BusWait)
	}
}

func TestBacklog(t *testing.T) {
	b, _ := newBus(Config{Latency: 32, SlotCycles: 4})
	if got := b.Backlog(0); got != 0 {
		t.Errorf("idle backlog = %d, want 0", got)
	}
	b.Transact(0, BusRd) // occupies the slot until cycle 4
	if got := b.Backlog(0); got != 4 {
		t.Errorf("backlog right after issue = %d, want 4", got)
	}
	if got := b.Backlog(2); got != 2 {
		t.Errorf("backlog at cycle 2 = %d, want 2", got)
	}
	if got := b.Backlog(4); got != 0 {
		t.Errorf("backlog at slot end = %d, want 0", got)
	}
	// Probing must not reserve: the next transaction still starts at
	// its natural grant.
	if got := b.Transact(4, BusRd); got != 36 {
		t.Errorf("transaction after probes visible at %d, want 36", got)
	}
}

func TestNewPanicsOnZeroSlotCycles(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero slot width did not panic")
		}
	}()
	New(Config{Latency: 32, SlotCycles: 0}, memsys.NewL2Stats())
}
