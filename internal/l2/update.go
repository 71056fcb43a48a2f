package l2

import (
	"fmt"

	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/cache"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
)

// PrivateUpdate models private caches under an update-based protocol
// (Dragon-style), the alternative §3.2 argues against: "It may seem
// that private caches can avoid coherence misses in read-write sharing
// by using an update protocol ... However, an update protocol requires
// the updates to go through the bus for copying the data to the
// reader's caches, incurring an overhead on every write. Furthermore,
// update protocols keep multiple copies of the read-write shared
// block," recreating uncontrolled replication's capacity problem.
//
// The model keeps MESI-like bookkeeping but never invalidates on
// writes: a store to a block with remote copies broadcasts a BusUpd
// (full bus latency on the writer's critical path) that freshens the
// sharers' L2 copies in place; their L1 copies drop and refill from
// their own updated L2 copy at private-hit cost — no coherence misses,
// exactly the property the protocol buys, at exactly the costs the
// paper names.
type PrivateUpdate struct {
	caches     []*cache.Array[updPayload]
	ports      []bus.Port
	bus        *bus.Bus
	hitLatency memsys.Cycles
	memLatency memsys.Cycles
	stats      *memsys.L2Stats
	l1inv      func(core int, addr memsys.Addr)
	// Updates counts write-triggered bus update broadcasts.
	Updates uint64
	// Writebacks counts dirty evictions reaching memory.
	Writebacks uint64
}

// updPayload: valid copies are shared or exclusive; dirty marks the
// current owner (last writer) responsible for write-back.
type updPayload struct {
	exclusive bool
	dirty     bool
	broughtBy memsys.Category
	reuses    int
}

// NewPrivateUpdate builds the update-protocol baseline at the paper's
// private-cache geometry.
func NewPrivateUpdate() *PrivateUpdate {
	l := topo.Derive()
	return NewPrivateUpdateWith(topo.PrivateBytes, topo.PrivateAssoc, topo.BlockBytes,
		l.PrivateTotal, bus.Config{Latency: l.Bus, SlotCycles: 4}, 300)
}

// NewPrivateUpdateWith builds the baseline with explicit geometry.
func NewPrivateUpdateWith(capacityBytes memsys.Bytes, ways int, blockBytes memsys.Bytes, hitLatency memsys.Cycles, busCfg bus.Config, memLatency memsys.Cycles) *PrivateUpdate {
	st := memsys.NewL2Stats()
	p := &PrivateUpdate{
		ports:      make([]bus.Port, topo.NumCores),
		bus:        bus.New(busCfg, st),
		hitLatency: hitLatency,
		memLatency: memLatency,
		stats:      st,
	}
	for c := 0; c < topo.NumCores; c++ {
		p.caches = append(p.caches, cache.NewArray[updPayload](
			cache.GeometryFor(capacityBytes, ways, blockBytes)))
	}
	return p
}

// Name implements memsys.L2.
func (p *PrivateUpdate) Name() string { return "private-update" }

// Stats implements memsys.L2.
func (p *PrivateUpdate) Stats() *memsys.L2Stats { return p.stats }

// SetL1Invalidate implements memsys.L1Invalidator.
func (p *PrivateUpdate) SetL1Invalidate(fn func(core int, addr memsys.Addr)) { p.l1inv = fn }

// MaintainsL1Coherence implements memsys.L1Coherent: updates drop the
// sharers' L1 copies themselves.
func (p *PrivateUpdate) MaintainsL1Coherence() {}

// LineState implements memsys.LineStateProber for stall diagnostics.
func (p *PrivateUpdate) LineState(core int, addr memsys.Addr) string {
	l := p.caches[core].Probe(addr.BlockAddr(p.blockBytes()))
	switch {
	case l == nil:
		return "I"
	case l.Data.exclusive && l.Data.dirty:
		return "M"
	case l.Data.exclusive:
		return "E"
	case l.Data.dirty:
		return "S(owner)"
	}
	return "S"
}

// BusBacklog implements memsys.BusBacklogReporter.
func (p *PrivateUpdate) BusBacklog(now memsys.Cycle) memsys.Cycles { return p.bus.Backlog(now) }

// IsCommunication implements cmpsim's write-through hook: update
// protocols must see *every* store to a shared block at the L2 (each
// one broadcasts), so shared blocks are write-through in the L1 — the
// same discipline MESIC's C blocks need, and the per-write overhead
// §3.2 charges update protocols with.
func (p *PrivateUpdate) IsCommunication(core int, addr memsys.Addr) bool {
	addr = addr.BlockAddr(p.blockBytes())
	if p.caches[core].Probe(addr) == nil {
		return false
	}
	n, _, _ := p.copies(core, addr)
	return n > 0
}

func (p *PrivateUpdate) blockBytes() memsys.Bytes { return p.caches[0].Geometry().BlockBytes }

// copies counts the cores (other than core) holding addr, returning
// the count, the lowest such core (-1 when none), and whether any copy
// is dirty. Counting instead of materializing a holder slice keeps the
// per-access path allocation-free; sites that need the full set loop
// over the cores again (update).
func (p *PrivateUpdate) copies(core int, addr memsys.Addr) (n, first int, dirty bool) {
	first = -1
	for o := 0; o < topo.NumCores; o++ {
		if o == core {
			continue
		}
		if l := p.caches[o].Probe(addr); l != nil {
			if first < 0 {
				first = o
			}
			n++
			dirty = dirty || l.Data.dirty
		}
	}
	return n, first, dirty
}

func (p *PrivateUpdate) kill(core int, l *cache.Line[updPayload]) {
	addr := p.caches[core].AddrOf(l)
	switch l.Data.broughtBy {
	case memsys.ROSMiss:
		p.stats.ReuseROS.Record(l.Data.reuses)
	case memsys.RWSMiss:
		p.stats.ReuseRWS.Record(l.Data.reuses)
	}
	if l.Data.dirty {
		// The owner's eviction hands write-back duty to memory; any
		// remaining sharers keep clean copies.
		p.Writebacks++
	}
	p.caches[core].Invalidate(l)
	if p.l1inv != nil {
		p.l1inv(core, addr)
	}
}

// update broadcasts core's write to the sharers: their L2 copies
// freshen in place (stay valid, clean), their L1 copies drop, and the
// writer becomes the dirty owner. The caller accounts the broadcast's
// bus transaction.
func (p *PrivateUpdate) update(core int, addr memsys.Addr) {
	p.Updates++
	for o := 0; o < topo.NumCores; o++ {
		if o == core {
			continue
		}
		if l := p.caches[o].Probe(addr); l != nil {
			l.Data.dirty = false
			l.Data.exclusive = false
			if p.l1inv != nil {
				p.l1inv(o, addr)
			}
		}
	}
}

// Access implements memsys.L2.
//
// hotpath:root
func (p *PrivateUpdate) Access(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Result {
	addr = addr.BlockAddr(p.blockBytes())
	arr := p.caches[core]
	start := p.ports[core].Acquire(now, p.hitLatency)
	lat := start.Sub(now) + p.hitLatency
	t := now.Add(lat)

	if l := arr.Probe(addr); l != nil {
		arr.Touch(l)
		l.Data.reuses++
		if write {
			n, _, _ := p.copies(core, addr)
			if n > 0 {
				// The update goes through the bus on every write —
				// the overhead the paper charges this protocol with.
				vis := p.bus.Transact(t, bus.BusUpg)
				lat += vis.Sub(t)
				p.update(core, addr)
			}
			l.Data.dirty = true
		}
		res := memsys.Result{Latency: lat, Category: memsys.Hit, DGroup: -1}
		p.stats.RecordAccess(res)
		return res
	}

	// Miss: classify per the paper's taxonomy, fill a local copy
	// (uncontrolled replication), no invalidations.
	n, first, dirty := p.copies(core, addr)
	category := memsys.CapacityMiss
	if dirty {
		category = memsys.RWSMiss
	} else if n > 0 {
		category = memsys.ROSMiss
	}
	vis := p.bus.Transact(t, bus.BusRd)
	lat += vis.Sub(t)
	t2 := now.Add(lat)
	if n > 0 {
		remStart := p.ports[first].Acquire(t2, p.hitLatency)
		lat += remStart.Sub(t2) + p.hitLatency
	} else {
		p.stats.OffChipMisses++
		lat += p.memLatency
	}

	v := arr.Victim(addr)
	if v.Valid {
		p.kill(core, v)
	}
	pay := updPayload{exclusive: n == 0, broughtBy: category}
	if write {
		pay.dirty = true
		if n > 0 {
			// The sharer set is unchanged since copies(): the victim
			// kill above only touched core's own cache. The miss
			// issues no separate transaction for the update, but it
			// counts as a BusUpg like the hit path's.
			p.stats.BusTransactions.Inc(memsys.LabelBusUpg)
			p.update(core, addr)
		}
	}
	arr.Install(v, addr, pay)

	res := memsys.Result{Latency: lat, Category: category, DGroup: -1}
	p.stats.RecordAccess(res)
	return res
}

// CheckInvariants validates the update protocol's single-owner rule:
// at most one dirty copy per block.
func (p *PrivateUpdate) CheckInvariants() {
	owners := map[memsys.Addr]int{}
	for c := 0; c < topo.NumCores; c++ {
		p.caches[c].ForEach(func(_ int, l *cache.Line[updPayload]) {
			if l.Data.dirty {
				owners[p.caches[c].AddrOf(l)]++
			}
		})
	}
	for addr, n := range owners {
		if n > 1 {
			panic(fmt.Sprintf("l2: update protocol has %d dirty owners for block %#x", n, addr))
		}
	}
}
