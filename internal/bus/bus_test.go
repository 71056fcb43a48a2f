package bus

import (
	"testing"
	"testing/quick"

	"cmpnurapid/internal/coherence"
	"cmpnurapid/internal/memsys"
)

// table1 is the paper's Table 1 bus: 32-cycle latency, a slot every
// 4 cycles.
var table1 = Config{Latency: 32, SlotCycles: 4}

// newBus returns a bus counting into fresh stats.
func newBus(cfg Config) (*Bus, *memsys.L2Stats) {
	s := memsys.NewL2Stats()
	return New(cfg, s), s
}

func TestTransactLatency(t *testing.T) {
	b, _ := newBus(table1)
	if got := b.Transact(100, coherence.BusRd); got != 132 {
		t.Errorf("first transaction visible at %d, want 132", got)
	}
}

func TestTransactPipelining(t *testing.T) {
	b, s := newBus(Config{Latency: 32, SlotCycles: 4})
	// Two back-to-back transactions at the same cycle: the second waits
	// one slot, not a full latency.
	first := b.Transact(0, coherence.BusRd)
	second := b.Transact(0, coherence.BusRdX)
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
	b.Transact(0, coherence.BusRd)
	if got := b.Transact(10, coherence.BusRd); got != 42 {
		t.Errorf("spaced transaction visible at %d, want 42", got)
	}
	if s.BusWait != 0 {
		t.Errorf("BusWait = %d, want 0", s.BusWait)
	}
}

// TestCounts: each issued transaction is counted once, under its
// kind's label, in the stats the bus was built with.
func TestCounts(t *testing.T) {
	b, s := newBus(table1)
	b.Transact(0, coherence.BusRd)
	b.Transact(0, coherence.BusRd)
	b.Transact(0, coherence.BusRepl)
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

// TestOpLabels: Transact counts each issued op under its memsys label,
// so coherence.BusOp's String is the bus report's vocabulary.
func TestOpLabels(t *testing.T) {
	want := map[coherence.BusOp]string{
		coherence.BusRd: memsys.LabelBusRd, coherence.BusRdX: memsys.LabelBusRdX,
		coherence.BusUpg: memsys.LabelBusUpg, coherence.BusRepl: memsys.LabelBusRepl,
	}
	for op, label := range want {
		b, s := newBus(table1)
		b.Transact(0, op)
		if got := s.BusTransactions.Count(label); got != 1 {
			t.Errorf("Transact(%v) counted %d under %q, want 1", op, got, label)
		}
		if got := s.BusTransactions.Total(); got != 1 {
			t.Errorf("Transact(%v) counted %d transactions, want 1", op, got)
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
			vis := b.Transact(now, coherence.BusRd)
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

func TestBacklog(t *testing.T) {
	b, _ := newBus(Config{Latency: 32, SlotCycles: 4})
	if got := b.Backlog(0); got != 0 {
		t.Errorf("idle backlog = %d, want 0", got)
	}
	b.Transact(0, coherence.BusRd) // occupies the slot until cycle 4
	if got := b.Backlog(0); got != 4 {
		t.Errorf("backlog right after issue = %d, want 4", got)
	}
	if got := b.Backlog(2); got != 2 {
		t.Errorf("backlog at cycle 2 = %d, want 2", got)
	}
	if got := b.Backlog(4); got != 0 {
		t.Errorf("backlog at slot end = %d, want 0", got)
	}
	if got := b.Backlog(100); got != 0 {
		t.Errorf("backlog long after the slot = %d, want 0", got)
	}
	// Probing must not reserve: the next transaction still starts at
	// its natural grant.
	if got := b.Transact(4, coherence.BusRd); got != 36 {
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

// TestSmallestConfig: one-cycle latency and slots are the smallest bus
// Validate accepts, and it runs like any other.
func TestSmallestConfig(t *testing.T) {
	b, _ := newBus(Config{Latency: 1, SlotCycles: 1})
	if first, second := b.Transact(0, coherence.BusRd), b.Transact(0, coherence.BusRd); first != 1 || second != 2 {
		t.Errorf("visible at %d and %d, want 1 and 2", first, second)
	}
}
