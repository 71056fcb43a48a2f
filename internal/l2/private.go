package l2

import (
	"fmt"

	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/cache"
	"cmpnurapid/internal/coherence"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
)

// privPayload is a private-cache line's coherence state plus the
// block-lifetime bookkeeping behind Figure 7.
type privPayload struct {
	state     coherence.State
	broughtBy memsys.Category
	reuses    int
}

// Private models the per-core private cache baseline: four 2 MB 8-way
// caches snooping a split-transaction bus with the MESI protocol.
// Every fill replicates into the requester's cache (uncontrolled
// replication), and read-write sharing ping-pongs through coherence
// misses — the two behaviours CR and ISC exist to fix.
type Private struct {
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

// NewPrivate builds the paper's configuration: 2 MB 8-way per core,
// 10-cycle hit (Table 1), 32-cycle bus, 300-cycle memory.
func NewPrivate() *Private {
	l := topo.Derive()
	return NewPrivateWith(topo.PrivateBytes, topo.PrivateAssoc, topo.BlockBytes,
		l.PrivateTotal, bus.Config{Latency: l.Bus, SlotCycles: 4}, 300)
}

// NewPrivateWith builds private caches with explicit geometry/timing.
func NewPrivateWith(capacityBytes memsys.Bytes, ways int, blockBytes memsys.Bytes, hitLatency memsys.Cycles, busCfg bus.Config, memLatency memsys.Cycles) *Private {
	st := memsys.NewL2Stats()
	p := &Private{
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
func (p *Private) Name() string { return "private" }

// Stats implements memsys.L2.
func (p *Private) Stats() *memsys.L2Stats { return p.stats }

// SetL1Invalidate implements memsys.L1Invalidator.
func (p *Private) SetL1Invalidate(fn func(core int, addr memsys.Addr)) { p.l1inv = fn }

// MaintainsL1Coherence implements memsys.L1Coherent: MESI snooping
// invalidates and downgrades L1 copies.
func (p *Private) MaintainsL1Coherence() {}

// StateOf reports core's MESI state for addr (exposed for tests).
func (p *Private) StateOf(core int, addr memsys.Addr) coherence.State {
	l := p.caches[core].Probe(addr.BlockAddr(p.blockBytes()))
	if l == nil {
		return coherence.Invalid
	}
	return l.Data.state
}

// LineState implements memsys.LineStateProber for stall diagnostics.
func (p *Private) LineState(core int, addr memsys.Addr) string {
	return p.StateOf(core, addr).String()
}

// BusBacklog implements memsys.BusBacklogReporter.
func (p *Private) BusBacklog(now memsys.Cycle) memsys.Cycles { return p.bus.Backlog(now) }

func (p *Private) blockBytes() memsys.Bytes { return p.caches[0].Geometry().BlockBytes }

// kill invalidates core's line, recording its lifetime and preserving
// L1 inclusion.
func (p *Private) kill(core int, l *cache.Line[privPayload]) {
	addr := p.caches[core].AddrOf(l)
	switch l.Data.broughtBy {
	case memsys.ROSMiss:
		p.stats.ReuseROS.Record(l.Data.reuses)
	case memsys.RWSMiss:
		p.stats.ReuseRWS.Record(l.Data.reuses)
	}
	if l.Data.state == coherence.Modified {
		p.Writebacks++
	}
	p.caches[core].Invalidate(l)
	if p.l1inv != nil {
		p.l1inv(core, addr)
	}
}

// signals samples the wired-OR bus lines from the other caches.
func (p *Private) signals(core int, addr memsys.Addr) coherence.Signals {
	var sig coherence.Signals
	for o := 0; o < topo.NumCores; o++ {
		if o == core {
			continue
		}
		if l := p.caches[o].Probe(addr); l != nil {
			if l.Data.state.Dirty() {
				sig.Dirty = true
			} else {
				sig.Shared = true
			}
		}
	}
	return sig
}

// snoopOthers applies a bus transaction from core to every other cache
// per MESI and returns the core that supplied the block, or -1. A
// cache holding the block in S does not flush under basic MESI, but
// being on-chip it still supplies the data more cheaply than memory;
// we return it as the supplier without a Flush transaction.
func (p *Private) snoopOthers(core int, addr memsys.Addr, op coherence.BusOp) (supplier int) {
	supplier = -1
	for o := 0; o < topo.NumCores; o++ {
		if o == core {
			continue
		}
		l := p.caches[o].Probe(addr)
		if l == nil {
			continue
		}
		next, act := coherence.MESISnoop(l.Data.state, op)
		switch act {
		case coherence.Flush:
			supplier = o
			p.Writebacks++ // MESI flush updates memory
			p.stats.BusTransactions.Inc(memsys.LabelFlush)
		case coherence.FlushClean:
			supplier = o
			p.stats.BusTransactions.Inc(memsys.LabelFlush)
		case coherence.None:
			if supplier < 0 && l.Data.state == coherence.Shared && op != coherence.BusUpg {
				supplier = o
			}
		default: // InvalidateL1 is MESIC-only; MESISnoop never returns it
			panic("l2: MESI snoop returned action " + act.String())
		}
		if next == coherence.Invalid {
			p.kill(o, l)
		} else {
			if next != l.Data.state && p.l1inv != nil {
				// Downgrade (M→S, E→S): the holder's L1 copy may be
				// dirty; drop it so a later local store cannot be
				// absorbed by a stale-exclusive L1 line.
				p.l1inv(o, addr)
			}
			l.Data.state = next
		}
	}
	return supplier
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
		l.Data.reuses++
		op := coherence.PrRd
		if write {
			op = coherence.PrWr
		}
		next, busOp := coherence.MESIProc(l.Data.state, op, coherence.Signals{})
		if busOp != coherence.BusNone {
			// S→M upgrade: the bus transaction is on the critical path.
			vis := p.bus.Transact(t, bus.BusUpg)
			lat += vis.Sub(t)
			p.snoopOthers(core, addr, coherence.BusUpg)
		}
		l.Data.state = next
		res := memsys.Result{Latency: lat, Category: memsys.Hit, DGroup: -1}
		p.stats.RecordAccess(res)
		return res
	}

	// Miss: classify from the other caches' states (the paper's
	// taxonomy), then run the MESI flow.
	sig := p.signals(core, addr)
	category := memsys.CapacityMiss
	if sig.Dirty {
		category = memsys.RWSMiss
	} else if sig.Shared {
		category = memsys.ROSMiss
	}

	op := coherence.PrRd
	busKind := bus.BusRd
	mesiOp := coherence.BusRd
	if write {
		op = coherence.PrWr
		busKind = bus.BusRdX
		mesiOp = coherence.BusRdX
	}
	vis := p.bus.Transact(t, busKind)
	lat += vis.Sub(t)
	t2 := now.Add(lat)

	supplier := p.snoopOthers(core, addr, mesiOp)
	if supplier >= 0 {
		// Cache-to-cache transfer: the supplier's access time.
		remStart := p.ports[supplier].Acquire(t2, p.hitLatency)
		lat += remStart.Sub(t2) + p.hitLatency
	} else {
		p.stats.OffChipMisses++
		lat += p.memLatency
	}

	newState, _ := coherence.MESIProc(coherence.Invalid, op, sig)
	v := arr.Victim(addr)
	if v.Valid {
		p.kill(core, v)
	}
	arr.Install(v, addr, privPayload{state: newState, broughtBy: category})

	res := memsys.Result{Latency: lat, Category: category, DGroup: -1}
	p.stats.RecordAccess(res)
	return res
}

// CheckInvariants validates MESI single-owner rules across the private
// caches; tests call it after workloads.
func (p *Private) CheckInvariants() {
	type counts struct{ m, e, s int }
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
		if (b.m == 1 || b.e == 1) && b.s > 0 {
			panic(fmt.Sprintf("l2: block %#x owner coexists with sharers", addr))
		}
	}
}
