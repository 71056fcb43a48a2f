package core

import (
	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/coherence"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
)

// Access implements memsys.L2: one reference by core at cycle now.
// Sequential tag-data access: the private tag array is probed first
// (5 cycles, Table 1); the forward pointer then directs the data
// access to a d-group through the crossbar.
//
// hotpath:root
func (c *Cache) Access(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Result {
	addr = addr.BlockAddr(c.cfg.BlockBytes)
	start := c.tagPort[core].Acquire(now, c.cfg.TagLatency)
	lat := start.Sub(now) + c.cfg.TagLatency
	t := now.Add(lat)

	var res memsys.Result
	if line := c.tags[core].Probe(addr); line != nil {
		res = c.hit(t, core, addr, line, write)
	} else {
		res = c.miss(t, core, addr, write)
	}
	res.Latency += lat
	c.stats.RecordAccess(res)
	return res
}

// hit serves a tag-array hit.
func (c *Cache) hit(t memsys.Cycle, core int, addr memsys.Addr, line *tagLine, write bool) memsys.Result {
	c.tags[core].Touch(line)
	line.Data.reuses++
	var lat memsys.Cycles
	// The d-group that serves this access; captured before promotion or
	// replication moves the pointer, since Figure 9 classifies the
	// access by where the data was when it was read.
	servedDG := line.Data.fwd.dgroup

	switch line.Data.state {
	case coherence.Exclusive, coherence.Modified:
		if write {
			line.Data.state = coherence.Modified // E→M is silent
		}
		lat += c.dgAccess(t, core, line.Data.fwd.dgroup)
		if line.Data.fwd.dgroup != c.closest(core) {
			// Capacity stealing: promote reused private blocks
			// (§3.3.1). The promotion itself is off the critical path.
			c.promote(t, core, line)
		}

	case coherence.Shared:
		if write {
			// S→M upgrade: BusUpg invalidates every other copy; we take
			// ownership of the data copy our pointer targets.
			lat += c.transact(t, bus.BusUpg)
			c.upgradeToM(core, addr, line)
			servedDG = line.Data.fwd.dgroup
			lat += c.dgAccess(t.Add(lat), core, servedDG)
		} else {
			p := line.Data.fwd
			lat += c.dgAccess(t, core, p.dgroup)
			if c.cfg.Replication == ReplicateSecondUse && p.dgroup != c.closest(core) {
				// Controlled replication's second-use copy (§3.1):
				// "P1 makes a copy of X in its closest d-group and
				// updates the forward pointer in its tag entry."
				c.replicate(core, addr, line)
			}
		}

	case coherence.Communication:
		// In-situ communication: both reads and writes access the
		// single data copy wherever it lives — possibly a farther
		// d-group — without any coherence miss (§3.2).
		p := line.Data.fwd
		lat += c.dgAccess(t, core, p.dgroup)
		if !write && c.cfg.CMigrationThreshold > 0 && p.dgroup != c.closest(core) {
			// Future-work extension: a copy stuck far from its only
			// active reader migrates after repeated remote reads.
			line.Data.farReads++
			if line.Data.farReads >= c.cfg.CMigrationThreshold {
				c.migrateC(core, addr, line)
				line.Data.farReads = 0
			}
		} else if !write {
			line.Data.farReads = 0
		}
		if write {
			// Write-through plus a posted invalidating broadcast so C
			// sharers drop stale L1 copies while keeping their tags.
			lat += c.post(t, bus.BusUpg)
			for o := 0; o < topo.NumCores; o++ {
				if o == core {
					continue
				}
				if ol := c.tags[o].Probe(addr); ol != nil && ol.Data.state == coherence.Communication {
					c.dropL1(o, addr)
				}
			}
		}

	default: // Invalid — Probe never returns invalid lines
		panic("core: tag hit on line in state " + line.Data.state.String())
	}

	return memsys.Result{
		Latency:       lat,
		Category:      memsys.Hit,
		DGroup:        servedDG,
		ClosestDGroup: servedDG == c.closest(core),
	}
}

// replicate makes core's own copy of a clean shared block in its
// closest d-group. When the existing copy belongs to another core it
// is left in place for its owner (true replication). When the
// replicating core itself owns the old copy — a private block that was
// demoted by capacity stealing and only later became shared — the old
// frame would be left with a dangling reverse pointer (the §3.3.2
// scenario), so the replication degenerates to a move: pointer-sharers
// are repointed to the new copy and the old frame is freed.
func (c *Cache) replicate(core int, addr memsys.Addr, line *tagLine) {
	src := line.Data.fwd
	owns := c.frameAt(src).revCore == core
	c.pin(src)
	cl := c.closest(core)
	nf := c.freeFrameIn(0, core, cl, -1)
	c.unpin()
	np := ptr{cl, nf}
	*c.frameAt(np) = frameInfo{valid: true, addr: addr, revCore: core}
	line.Data.fwd = np
	if owns {
		// Safe to repoint mid-scan: core's own tag already moved to np
		// above, so only other cores' tags still match src.
		for o := 0; o < topo.NumCores; o++ {
			if ol := c.pointsAt(o, addr, src); ol != nil {
				ol.Data.fwd = np
			}
		}
		c.releaseFrame(src)
	}
	c.stats.Replications++
}

// migrateC moves a communication-state block's single data copy into
// core's closest d-group and repoints every C tag at it (the stuck-
// copy remedy the paper leaves to future work; same data movement as
// the ISC read-miss flow, triggered from a hit).
func (c *Cache) migrateC(core int, addr memsys.Addr, line *tagLine) {
	q := line.Data.fwd
	c.pin(q)
	cl := c.closest(core)
	nf := c.freeFrameIn(0, core, cl, -1)
	c.unpin()
	np := ptr{cl, nf}
	*c.frameAt(np) = frameInfo{valid: true, addr: addr, revCore: core}
	for o := 0; o < topo.NumCores; o++ {
		if ol := c.tags[o].Probe(addr); ol != nil && ol.Data.state == coherence.Communication {
			ol.Data.fwd = np
		}
	}
	c.releaseFrame(q)
	c.CMigrations++
}

// upgradeToM performs the data-side work of an S→M upgrade: every
// other tag copy is invalidated, other cores' owned data copies are
// freed, and the copy the writer points at changes ownership to the
// writer.
func (c *Cache) upgradeToM(core int, addr memsys.Addr, line *tagLine) {
	p := line.Data.fwd
	for o := 0; o < topo.NumCores; o++ {
		if o == core {
			continue
		}
		ol := c.tags[o].Probe(addr)
		if ol == nil {
			continue
		}
		op := ol.Data.fwd
		ownsOther := op != p && c.frameAt(op).valid && c.frameAt(op).addr == addr && c.frameAt(op).revCore == o
		c.killTag(o, ol)
		if ownsOther {
			c.releaseFrame(op)
		}
	}
	c.frameAt(p).revCore = core
	line.Data.state = coherence.Modified
}

// snoopState summarizes the other cores' copies sampled by a miss.
type snoopState struct {
	dirty     bool // dirty signal: an M or C copy exists (§3.2)
	clean     bool // shared signal: an S or E copy exists
	dirtyPtr  ptr  // the single dirty data copy
	bestClean ptr  // the clean copy fastest to reach from the requester
	bestLat   memsys.Cycles
}

// snoop samples the other tag arrays the way the bus's wired-OR
// shared/dirty lines would.
func (c *Cache) snoop(core int, addr memsys.Addr) snoopState {
	s := snoopState{bestLat: 1 << 30}
	for o := 0; o < topo.NumCores; o++ {
		if o == core {
			continue
		}
		ol := c.tags[o].Probe(addr)
		if ol == nil {
			continue
		}
		if ol.Data.state.Dirty() {
			s.dirty = true
			s.dirtyPtr = ol.Data.fwd
		} else {
			s.clean = true
			if l := c.latTo(core, ol.Data.fwd.dgroup); l < s.bestLat {
				s.bestLat = l
				s.bestClean = ol.Data.fwd
			}
		}
	}
	return s
}

// miss handles a tag-array miss: snoop, classify per the paper's
// taxonomy, and run the matching coherence flow.
func (c *Cache) miss(t memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Result {
	s := c.snoop(core, addr)
	kind := bus.BusRd
	if write {
		kind = bus.BusRdX
	}
	lat := c.transact(t, kind)
	t2 := t.Add(lat)

	switch {
	case s.dirty:
		return c.missDirty(t2, core, addr, write, s, lat)
	case s.clean:
		return c.missClean(t2, core, addr, write, s, lat)
	}
	// Capacity miss: off-chip.
	c.stats.OffChipMisses++
	lat += c.cfg.MemLatency
	st := coherence.Exclusive
	if write {
		st = coherence.Modified
	}
	c.allocClosest(t2, core, addr, tagPayload{state: st, broughtBy: memsys.CapacityMiss})
	return memsys.Result{Latency: lat, Category: memsys.CapacityMiss, DGroup: -1}
}

// missClean handles a miss on a block with clean on-chip copies: a ROS
// miss. Reads use controlled replication; writes take MESI ownership.
func (c *Cache) missClean(t memsys.Cycle, core int, addr memsys.Addr, write bool, s snoopState, lat memsys.Cycles) memsys.Result {
	if write {
		// BusRdX: sample the data from the nearest clean copy, then
		// every other copy is invalidated and we allocate ours.
		lat += c.dgAccess(t, core, s.bestClean.dgroup)
		c.invalidateAllOthers(core, addr)
		c.allocClosest(t, core, addr, tagPayload{state: coherence.Modified, broughtBy: memsys.ROSMiss})
		return memsys.Result{Latency: lat, Category: memsys.ROSMiss, DGroup: -1}
	}

	// Read: all clean holders transition E→S / stay S (snoop side).
	for o := 0; o < topo.NumCores; o++ {
		if o == core {
			continue
		}
		if ol := c.tags[o].Probe(addr); ol != nil && ol.Data.state == coherence.Exclusive {
			ol.Data.state = coherence.Shared
		}
	}
	if c.cfg.Replication == ReplicateFirstUse {
		// Uncontrolled replication: copy immediately, like a private
		// cache's cache-to-cache fill.
		lat += c.dgAccess(t, core, s.bestClean.dgroup)
		c.stats.BusTransactions.Inc(memsys.LabelFlush)
		c.allocClosest(t, core, addr, tagPayload{state: coherence.Shared, broughtBy: memsys.ROSMiss})
		return memsys.Result{Latency: lat, Category: memsys.ROSMiss, DGroup: -1}
	}

	// Controlled replication (§3.1): the holder returns its forward
	// pointer on the bus's pointer wires; we keep a tag copy pointing
	// at the existing data copy and access it directly through the
	// crossbar. No data copy is made on first use.
	c.stats.BusTransactions.Inc(memsys.LabelPtrRet)
	c.stats.PointerReturns++
	lat += c.dgAccess(t, core, s.bestClean.dgroup)
	c.installTag(t, core, addr, tagPayload{
		state: coherence.Shared, fwd: s.bestClean, broughtBy: memsys.ROSMiss,
	})
	return memsys.Result{Latency: lat, Category: memsys.ROSMiss, DGroup: -1}
}

// missDirty handles a miss on a block with a dirty on-chip copy: a RWS
// miss. With ISC the requester joins the communication group; without
// it the flows are plain MESI cache-to-cache transfers.
func (c *Cache) missDirty(t memsys.Cycle, core int, addr memsys.Addr, write bool, s snoopState, lat memsys.Cycles) memsys.Result {
	q := s.dirtyPtr
	if !c.cfg.EnableISC {
		return c.missDirtyMESI(t, core, addr, write, q, lat)
	}

	lat += c.dgAccess(t, core, q.dgroup)
	if write {
		// Writer joins the communication group without copying: "the
		// writer enters C pointing its tag entry to the already-
		// existing data copy, and writes to the copy. Thus, the copy
		// stays close to the reader." (§3.2)
		for o := 0; o < topo.NumCores; o++ {
			if o == core {
				continue
			}
			if ol := c.tags[o].Probe(addr); ol != nil && ol.Data.state.Dirty() {
				ol.Data.state = coherence.Communication
				c.dropL1(o, addr) // BusRdX: stale L1 copies must go
			}
		}
		c.installTag(t, core, addr, tagPayload{
			state: coherence.Communication, fwd: q, broughtBy: memsys.RWSMiss,
		})
		return memsys.Result{Latency: lat, Category: memsys.RWSMiss, DGroup: -1}
	}

	// Reader: "the reader makes a new copy of the block in its closest
	// d-group, and the previous data copy is invalidated. All the
	// sharers enter (or remain in) C and their tag entries point to the
	// new data copy." (§3.2)
	c.pin(q)
	v := c.tagVictim(core, addr)
	freed := c.evictTagEntry(t, core, v)
	cl := c.closest(core)
	nf := c.freeFrameIn(t, core, cl, freed)
	np := ptr{cl, nf}
	*c.frameAt(np) = frameInfo{valid: true, addr: addr, revCore: core}
	for o := 0; o < topo.NumCores; o++ {
		if o == core {
			continue
		}
		if ol := c.tags[o].Probe(addr); ol != nil && ol.Data.state.Dirty() {
			ol.Data.state = coherence.Communication
			ol.Data.fwd = np
		}
	}
	c.unpin()
	c.releaseFrame(q)
	c.tags[core].Install(v, addr, tagPayload{
		state: coherence.Communication, fwd: np, broughtBy: memsys.RWSMiss,
	})
	lat += c.dgAccess(t.Add(lat), core, cl)
	return memsys.Result{Latency: lat, Category: memsys.RWSMiss, DGroup: -1}
}

// missDirtyMESI is the RWS-miss flow with ISC disabled: plain MESI.
func (c *Cache) missDirtyMESI(t memsys.Cycle, core int, addr memsys.Addr, write bool, q ptr, lat memsys.Cycles) memsys.Result {
	lat += c.dgAccess(t, core, q.dgroup)
	c.stats.BusTransactions.Inc(memsys.LabelFlush)
	if write {
		// BusRdX: the M holder flushes and invalidates; we take our own
		// copy in the closest d-group.
		c.invalidateAllOthers(core, addr)
		c.Writebacks++ // flush reaches memory in MESI write-miss
		c.allocClosest(t, core, addr, tagPayload{state: coherence.Modified, broughtBy: memsys.RWSMiss})
		return memsys.Result{Latency: lat, Category: memsys.RWSMiss, DGroup: -1}
	}
	// BusRd: the M holder flushes and drops to S, keeping its copy; we
	// pointer-share or copy per the replication policy.
	holderCore, holderLine := c.ownerLine(q)
	_ = holderCore
	holderLine.Data.state = coherence.Shared
	if c.cfg.Replication == ReplicateFirstUse {
		c.allocClosest(t, core, addr, tagPayload{state: coherence.Shared, broughtBy: memsys.RWSMiss})
	} else {
		c.installTag(t, core, addr, tagPayload{
			state: coherence.Shared, fwd: q, broughtBy: memsys.RWSMiss,
		})
	}
	return memsys.Result{Latency: lat, Category: memsys.RWSMiss, DGroup: -1}
}

// invalidateAllOthers kills every other core's tag entry for addr,
// freeing any data copies those entries own.
func (c *Cache) invalidateAllOthers(core int, addr memsys.Addr) {
	for o := 0; o < topo.NumCores; o++ {
		if o == core {
			continue
		}
		ol := c.tags[o].Probe(addr)
		if ol == nil {
			continue
		}
		op := ol.Data.fwd
		owns := c.frameAt(op).valid && c.frameAt(op).addr == addr && c.frameAt(op).revCore == o
		c.killTag(o, ol)
		if owns {
			c.releaseFrame(op)
		}
	}
}
