// Package bus models the pipelined split-transaction snoopy bus the
// private-cache baseline and CMP-NuRAPID snoop on (paper §2.2.2, §4.2).
//
// The bus has separate wires for addresses and pointers (so CMP-
// NuRAPID's pointer returns ride alongside ordinary snoops), a fixed
// end-to-end latency — the paper sets it to the wire delay for a core
// to reach the farthest tag array, 32 cycles — and pipelined slots:
// a new transaction may be issued every SlotCycles even while earlier
// transactions are still in flight.
//
// The bus keeps timing state only. Each issued transaction and its
// arbitration wait are counted in the owning design's memsys.L2Stats,
// the one place a run's traffic is measured (and reset at warm-up).
package bus

import "cmpnurapid/internal/memsys"

// Kind enumerates the transactions issued on the snoopy bus. BusRepl
// is CMP-NuRAPID's addition: a broadcast sent before replacing a
// shared data block so sharers whose tags point at the dying frame can
// invalidate them (§3.1). Snoop flushes and pointer returns are
// responses, not issued transactions; designs count them directly
// under memsys.LabelFlush and memsys.LabelPtrRet.
type Kind int

const (
	BusRd Kind = iota
	BusRdX
	BusUpg
	BusRepl
)

// String returns the kind's memsys bus-transaction label.
func (k Kind) String() string {
	switch k {
	case BusRd:
		return memsys.LabelBusRd
	case BusRdX:
		return memsys.LabelBusRdX
	case BusUpg:
		return memsys.LabelBusUpg
	case BusRepl:
		return memsys.LabelBusRepl
	}
	return "Kind(?)"
}

// Config sets the bus timing parameters.
type Config struct {
	// Latency is the end-to-end cycles for a transaction to be seen by
	// all snoopers (Table 1: 32).
	Latency memsys.Cycles
	// SlotCycles is the issue interval of the pipelined bus: a new
	// transaction can start every SlotCycles.
	SlotCycles memsys.Cycles
	// GrantJitter, when non-nil, returns an extra arbitration delay
	// applied to each transaction before its slot is granted. It is a
	// fault-injection hook (internal/simguard): chaos runs perturb bus
	// arbitration deterministically from a seeded source, and a nil
	// hook (the default everywhere outside chaos tests) leaves timing
	// bit-identical to a bus without the hook.
	GrantJitter func(now memsys.Cycle) memsys.Cycles
}

// DefaultConfig matches the paper's Table 1 bus.
func DefaultConfig() Config { return Config{Latency: 32, SlotCycles: 4} }

// Bus tracks slot occupancy. It is not safe for concurrent use; the
// simulator is single-threaded by design (the simulated cores
// interleave deterministically).
type Bus struct {
	cfg      Config
	nextFree memsys.Cycle
	stats    *memsys.L2Stats
}

// New creates a bus with the given configuration that counts its
// transactions and arbitration wait into stats.
func New(cfg Config, stats *memsys.L2Stats) *Bus {
	if cfg.Latency <= 0 || cfg.SlotCycles <= 0 {
		panic("bus: non-positive latency or slot width")
	}
	return &Bus{cfg: cfg, stats: stats}
}

// Transact issues a transaction of the given kind at cycle now. It
// returns the cycle at which the transaction is visible to all snoopers
// (grant + latency). Arbitration delay due to earlier transactions is
// included, and is added to the stats' BusWait.
//
// hotpath:root
func (b *Bus) Transact(now memsys.Cycle, kind Kind) (visibleAt memsys.Cycle) {
	grant := now
	if b.cfg.GrantJitter != nil {
		if j := b.cfg.GrantJitter(now); j > 0 {
			grant = grant.Add(j)
		}
	}
	if b.nextFree > grant {
		grant = b.nextFree
	}
	b.nextFree = grant.Add(b.cfg.SlotCycles)
	b.stats.BusTransactions.Inc(kind.String())
	b.stats.BusWait += grant.Sub(now)
	return grant.Add(b.cfg.Latency)
}

// Backlog reports how far the arbitration queue extends past now: the
// delay a transaction issued at now would wait for a slot. It is a
// diagnostic probe (forward-progress stall reports include it) and
// does not reserve anything.
func (b *Bus) Backlog(now memsys.Cycle) memsys.Cycles {
	if b.nextFree <= now {
		return 0
	}
	return b.nextFree.Sub(now)
}

// Latency returns the configured end-to-end latency.
func (b *Bus) Latency() memsys.Cycles { return b.cfg.Latency }

// Port models a single-ported, unpipelined structure (a private tag
// array or a data d-group; §3.3.2: "each private tag array and data
// d-group is single-ported and not pipelined"). An access occupies the
// port for its full duration.
type Port struct {
	nextFree memsys.Cycle
}

// Acquire reserves the port at cycle now for dur cycles and returns the
// cycle at which the access starts (>= now if the port was busy).
func (p *Port) Acquire(now memsys.Cycle, dur memsys.Cycles) (start memsys.Cycle) {
	start = now
	if p.nextFree > start {
		start = p.nextFree
	}
	p.nextFree = start.Add(dur)
	return start
}
