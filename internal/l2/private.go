package l2

import (
	"fmt"

	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/cache"
	"cmpnurapid/internal/coherence"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/stats"
	"cmpnurapid/internal/topo"
)

// Protocol is the coherence protocol the private caches snoop with.
type Protocol int8

const (
	// MESI invalidates every other copy on a write (Figure 4a): the
	// "private" baseline.
	MESI Protocol = iota
	// Update is the Dragon-style write-update protocol §3.2 argues
	// against: "an update protocol requires the updates to go through
	// the bus for copying the data to the reader's caches, incurring an
	// overhead on every write. Furthermore, update protocols keep
	// multiple copies of the read-write shared block," recreating
	// uncontrolled replication's capacity problem. Each store to a block
	// with other copies broadcasts a BusUpg on the writer's critical
	// path that freshens the sharers' L2 copies in place; their L1
	// copies drop and refill from their own L2 copy at private-hit cost.
	Update
)

// privPayload is a private-cache line's coherence state plus the
// block-lifetime bookkeeping behind Figure 7.
type privPayload struct {
	state     coherence.State
	broughtBy memsys.Category
	reuses    stats.Reuses
}

// Private models the per-core private cache baselines: four 2 MB 8-way
// caches snooping a split-transaction bus. Every fill replicates into
// the requester's cache (uncontrolled replication). Under MESI,
// read-write sharing ping-pongs through coherence misses; under the
// update protocol it costs a bus update per shared write instead — the
// behaviours CR and ISC exist to fix.
type Private struct {
	update     bool // the protocol is Update, not MESI
	caches     []*cache.Array[privPayload]
	ports      []bus.Port
	bus        *bus.Bus
	hitLatency memsys.Cycles
	memLatency memsys.Cycles
	stats      *memsys.L2Stats
	l1inv      func(core int, addr memsys.Addr)
	// Writebacks counts dirty evictions and flushes reaching memory.
	Writebacks uint64
}

// writeThrough is an update-protocol Private as cmpsim runs it: every
// store to a block another cache holds must reach the L2 to be
// broadcast, so the L1 writes such blocks through, as MESIC's C blocks.
// cmpsim finds the probe by method set; MESI's stores pay none.
type writeThrough struct{ *Private }

// IsCommunication implements cmpsim.CommunicationProber: core's copy
// of addr exists and so does another cache's.
func (w writeThrough) IsCommunication(core int, addr memsys.Addr) bool {
	addr = addr.BlockAddr(w.blockBytes())
	if w.caches[core].Probe(addr) == nil {
		return false
	}
	_, first := w.sample(core, addr)
	return first >= 0
}

// NewPrivate builds the paper's configuration under proto at l's
// size: one d-group's capacity, 8-way, per core at the private latency
// (Table 1: 10 cycles at 2 MB), l's bus, topo.MemLatency memory.
func NewPrivate(proto Protocol, l topo.Latencies) memsys.L2 {
	return NewPrivateWith(proto, l.DGroupBytes, topo.PrivateAssoc, topo.BlockBytes,
		l.PrivateTotal, bus.Config{Latency: l.Bus, SlotCycles: topo.BusSlotCycles}, topo.MemLatency)
}

// NewPrivateWith builds private caches with explicit geometry/timing:
// a *Private, which the update protocol wraps in writeThrough.
func NewPrivateWith(proto Protocol, capacityBytes memsys.Bytes, ways int, blockBytes memsys.Bytes, hitLatency memsys.Cycles, busCfg bus.Config, memLatency memsys.Cycles) memsys.L2 {
	p := newPrivate(proto, capacityBytes, ways, blockBytes, hitLatency, busCfg, memLatency)
	if p.update {
		return writeThrough{p}
	}
	return p
}

func newPrivate(proto Protocol, capacityBytes memsys.Bytes, ways int, blockBytes memsys.Bytes, hitLatency memsys.Cycles, busCfg bus.Config, memLatency memsys.Cycles) *Private {
	if proto != MESI && proto != Update {
		panic(fmt.Sprintf("l2: unknown private-cache protocol %d", int(proto)))
	}
	st := memsys.NewL2Stats()
	p := &Private{
		update:     proto == Update,
		ports:      make([]bus.Port, topo.NumCores),
		bus:        bus.New(busCfg, st),
		hitLatency: hitLatency,
		memLatency: memLatency,
		stats:      st,
	}
	for c := 0; c < topo.NumCores; c++ {
		p.caches = append(p.caches, cache.NewArray[privPayload](
			cache.GeometryFor(capacityBytes, ways, blockBytes)))
	}
	return p
}

// Name implements memsys.L2.
func (p *Private) Name() string {
	if p.update {
		return "private-update"
	}
	return "private"
}

// Stats implements memsys.L2.
func (p *Private) Stats() *memsys.L2Stats { return p.stats }

// SetL1Invalidate implements memsys.L1Invalidator.
func (p *Private) SetL1Invalidate(fn func(core int, addr memsys.Addr)) { p.l1inv = fn }

// MaintainsL1Coherence implements memsys.L1Coherent: snooping
// invalidates, downgrades and updates L1 copies.
func (p *Private) MaintainsL1Coherence() {}

// StateOf reports core's coherence state for addr (exposed for tests).
func (p *Private) StateOf(core int, addr memsys.Addr) coherence.State {
	l := p.caches[core].Probe(addr.BlockAddr(p.blockBytes()))
	if l == nil {
		return coherence.Invalid
	}
	return l.Data.state
}

// LineState implements memsys.LineStateProber for cycle-limit diagnostics.
func (p *Private) LineState(core int, addr memsys.Addr) string {
	return p.StateOf(core, addr).String()
}

// BusBacklog implements memsys.BusBacklogReporter.
func (p *Private) BusBacklog(now memsys.Cycle) memsys.Cycles { return p.bus.Backlog(now) }

func (p *Private) blockBytes() memsys.Bytes { return p.caches[0].Geometry().BlockBytes }

// onProc is the protocol's requester side, as core's onProc is
// CMP-NuRAPID's.
func (p *Private) onProc(s coherence.State, write bool, sig coherence.Signals) (coherence.State, coherence.BusOp) {
	op := coherence.PrRd
	if write {
		op = coherence.PrWr
	}
	if p.update {
		return coherence.UpdateProc(s, op, sig)
	}
	return coherence.MESIProc(s, op, sig)
}

// onSnoop is the protocol's snooper side.
func (p *Private) onSnoop(s coherence.State, op coherence.BusOp) (coherence.State, coherence.SnoopAction) {
	if p.update {
		return coherence.UpdateSnoop(s, op)
	}
	return coherence.MESISnoop(s, op)
}

// kill invalidates core's line, recording its lifetime and preserving
// L1 inclusion.
func (p *Private) kill(core int, l *cache.Line[privPayload]) {
	addr := p.caches[core].AddrOf(l)
	p.stats.RecordLifetime(l.Data.broughtBy, l.Data.reuses)
	if l.Data.state.Dirty() {
		p.Writebacks++
	}
	p.caches[core].Invalidate(l)
	if p.l1inv != nil {
		p.l1inv(core, addr)
	}
}

// sample reads the wired-OR bus lines from the other caches and finds
// the lowest-numbered other holder (-1 when none), which supplies a
// miss cache-to-cache. Under MESI that is the one E or M holder when
// there is one, since either is alone.
func (p *Private) sample(core int, addr memsys.Addr) (sig coherence.Signals, first int) {
	first = -1
	for o := 0; o < topo.NumCores; o++ {
		if o == core {
			continue
		}
		if l := p.caches[o].Probe(addr); l != nil {
			if first < 0 {
				first = o
			}
			if l.Data.state.Dirty() {
				sig.Dirty = true
			} else {
				sig.Shared = true
			}
		}
	}
	return sig, first
}

// snoopOthers applies a bus transaction from core to every other
// cache. A copy that stays valid but flushed (a MESI downgrade, M→S or
// E→S) or took an update (InvalidateL1) drops its L1 copy, which may
// be dirty or stale: a later local store must not be absorbed by a
// stale-exclusive L1 line.
func (p *Private) snoopOthers(core int, addr memsys.Addr, op coherence.BusOp) {
	for o := 0; o < topo.NumCores; o++ {
		if o == core {
			continue
		}
		l := p.caches[o].Probe(addr)
		if l == nil {
			continue
		}
		next, act := p.onSnoop(l.Data.state, op)
		switch act {
		case coherence.Flush:
			p.Writebacks++ // MESI flush updates memory
			p.stats.BusTransactions.Inc(memsys.LabelFlush)
		case coherence.FlushClean:
			p.stats.BusTransactions.Inc(memsys.LabelFlush)
		case coherence.None, coherence.InvalidateL1:
		}
		if next == coherence.Invalid {
			p.kill(o, l)
			continue
		}
		if act != coherence.None && p.l1inv != nil {
			p.l1inv(o, addr)
		}
		l.Data.state = next
	}
}

// Access implements memsys.L2.
//
// hotpath:root
func (p *Private) Access(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Result {
	addr = addr.BlockAddr(p.blockBytes())
	arr := p.caches[core]
	start := p.ports[core].Acquire(now, p.hitLatency)
	lat := start.Sub(now) + p.hitLatency
	t := now.Add(lat)

	if l := arr.Probe(addr); l != nil {
		arr.Touch(l)
		l.Data.reuses.Inc()
		// MESI's hits never depend on the signals; an update-protocol
		// write samples them to learn whether there are copies to update.
		var sig coherence.Signals
		if p.update && write {
			sig, _ = p.sample(core, addr)
		}
		next, busOp := p.onProc(l.Data.state, write, sig)
		if busOp != coherence.BusNone {
			// S→M upgrade or bus update: on the critical path.
			vis := p.bus.Transact(t, busOp)
			lat += vis.Sub(t)
			p.snoopOthers(core, addr, busOp)
		}
		l.Data.state = next
		res := memsys.Result{Latency: lat, Category: memsys.Hit, DGroup: -1}
		p.stats.RecordAccess(res)
		return res
	}

	// Miss: classify from the other caches' states (the paper's
	// taxonomy), then run the protocol.
	sig, supplier := p.sample(core, addr)
	category := memsys.CapacityMiss
	if sig.Dirty {
		category = memsys.RWSMiss
	} else if sig.Shared {
		category = memsys.ROSMiss
	}

	newState, busOp := p.onProc(coherence.Invalid, write, sig)
	fetch := busOp
	if busOp == coherence.BusUpg {
		// An update-protocol write miss with sharers fetches with BusRd
		// and counts its update as a BusUpg without a second
		// transaction (DESIGN.md, key design decision 15).
		fetch = coherence.BusRd
		p.stats.BusTransactions.Inc(memsys.LabelBusUpg)
	}
	vis := p.bus.Transact(t, fetch)
	lat += vis.Sub(t)
	t2 := now.Add(lat)
	p.snoopOthers(core, addr, busOp)

	if supplier >= 0 {
		// Cache-to-cache transfer: the supplier's access time.
		remStart := p.ports[supplier].Acquire(t2, p.hitLatency)
		lat += remStart.Sub(t2) + p.hitLatency
	} else {
		p.stats.OffChipMisses++
		lat += p.memLatency
	}

	v := arr.Victim(addr)
	if v.Valid {
		p.kill(core, v)
	}
	arr.Install(v, addr, privPayload{state: newState, broughtBy: category})

	res := memsys.Result{Latency: lat, Category: category, DGroup: -1}
	p.stats.RecordAccess(res)
	return res
}

// CheckInvariants validates the protocol's ownership rules across the
// private caches: at most one exclusive (M or E) owner, alone; at most
// one dirty (M or O) copy; O only under the update protocol. Tests call
// it after workloads.
func (p *Private) CheckInvariants() {
	type counts struct{ m, e, o, s int }
	blocks := map[memsys.Addr]*counts{}
	for c := 0; c < topo.NumCores; c++ {
		p.caches[c].ForEach(func(_ int, l *cache.Line[privPayload]) {
			addr := p.caches[c].AddrOf(l)
			b := blocks[addr]
			if b == nil {
				b = &counts{}
				blocks[addr] = b
			}
			switch l.Data.state {
			case coherence.Modified:
				b.m++
			case coherence.Exclusive:
				b.e++
			case coherence.Owned:
				if !p.update {
					panic(fmt.Sprintf("l2: block %#x has an O copy under MESI", addr))
				}
				b.o++
			case coherence.Shared:
				b.s++
			default:
				panic("l2: private line in invalid coherence state")
			}
		})
	}
	for addr, b := range blocks {
		if b.m+b.e > 1 {
			panic(fmt.Sprintf("l2: block %#x has multiple exclusive owners", addr))
		}
		if (b.m == 1 || b.e == 1) && b.s+b.o > 0 {
			panic(fmt.Sprintf("l2: block %#x owner coexists with sharers", addr))
		}
		if b.m+b.o > 1 {
			panic(fmt.Sprintf("l2: block %#x has %d dirty owners", addr, b.m+b.o))
		}
	}
}
