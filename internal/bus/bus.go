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
// The bus keeps timing state only. Each issued transaction — a
// coherence.BusOp, including CMP-NuRAPID's BusRepl broadcast (§3.1) —
// and its arbitration wait are counted in the owning design's
// memsys.L2Stats, the one place a run's traffic is measured (and reset
// at warm-up). Snoop flushes and pointer returns are responses, not
// issued transactions; designs count them directly under
// memsys.LabelFlush and memsys.LabelPtrRet.
package bus

import (
	"cmpnurapid/internal/coherence"
	"cmpnurapid/internal/memsys"
)

// Config sets the bus timing parameters.
type Config struct {
	// Latency is the end-to-end cycles for a transaction to be seen by
	// all snoopers (Table 1: 32; topo.Derive's Bus).
	Latency memsys.Cycles
	// SlotCycles is the issue interval of the pipelined bus: a new
	// transaction can start every SlotCycles.
	SlotCycles memsys.Cycles
}

// Validate panics unless the latency and slot width are positive.
// New runs it, and so does every design config that embeds a bus.
func (cfg Config) Validate() {
	if cfg.Latency <= 0 || cfg.SlotCycles <= 0 {
		panic("bus: non-positive latency or slot width")
	}
}

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
	cfg.Validate()
	return &Bus{cfg: cfg, stats: stats}
}

// Transact issues op at cycle now and counts it under op.String(),
// which is its memsys.LabelBus* label. It returns the cycle at which
// the transaction is visible to all snoopers (grant + latency).
// Arbitration delay due to earlier transactions is included, and is
// added to the stats' BusWait.
//
// hotpath:root
func (b *Bus) Transact(now memsys.Cycle, op coherence.BusOp) (visibleAt memsys.Cycle) {
	grant := max(now, b.nextFree)
	b.nextFree = grant.Add(b.cfg.SlotCycles)
	b.stats.BusTransactions.Inc(op.String())
	b.stats.BusWait += grant.Sub(now)
	return grant.Add(b.cfg.Latency)
}

// Backlog reports how far the arbitration queue extends past now: the
// delay a transaction issued at now would wait for a slot. It is a
// diagnostic probe (cycle-limit reports include it) and
// does not reserve anything.
func (b *Bus) Backlog(now memsys.Cycle) memsys.Cycles {
	return max(b.nextFree, now).Sub(now)
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
	start = max(now, p.nextFree)
	p.nextFree = start.Add(dur)
	return start
}
