package core

import (
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
	line.Data.reuses.Inc()
	var lat memsys.Cycles
	// The d-group that serves this access; captured before promotion or
	// replication moves the pointer, since Figure 9 classifies the
	// access by where the data was when it was read.
	servedDG := line.Data.fwd.dgroup()
	st := line.Data.state
	next, op := c.onProc(st, write, coherence.Signals{})
	line.Data.state = next

	switch st {
	case coherence.Exclusive, coherence.Modified:
		lat += c.dgAccess(t, core, line.Data.fwd.dgroup())
		if line.Data.fwd.dgroup() != c.closest(core) {
			// Capacity stealing: promote reused private blocks
			// (§3.3.1). The promotion itself is off the critical path.
			c.promote(t, core, line)
		}

	case coherence.Shared:
		if write {
			// S→M upgrade: BusUpg invalidates every other copy, freeing
			// the copies they own; we take ownership of the data copy
			// our pointer targets.
			lat += c.transact(t, op)
			c.snoopOthers(core, addr, op, line.Data.fwd)
			c.frameAt(line.Data.fwd).revCore = int8(core)
			lat += c.dgAccess(t.Add(lat), core, servedDG)
		} else {
			p := line.Data.fwd
			lat += c.dgAccess(t, core, p.dgroup())
			if c.cfg.Replication == ReplicateSecondUse && p.dgroup() != c.closest(core) {
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
		lat += c.dgAccess(t, core, p.dgroup())
		if !write && c.cfg.CMigrationThreshold > 0 && p.dgroup() != c.closest(core) {
			// Future-work extension: a copy stuck far from its only
			// active reader migrates after repeated remote reads.
			line.Data.farReads++
			if int(line.Data.farReads) >= c.cfg.CMigrationThreshold {
				c.migrateC(core, addr, line)
				line.Data.farReads = 0
			}
		} else if !write {
			line.Data.farReads = 0
		}
		if write {
			// Write-through plus a posted invalidating broadcast so C
			// sharers drop stale L1 copies while keeping their tags.
			lat += c.post(t, op)
			c.snoopOthers(core, addr, op, p)
		}

	default: // Invalid — Probe never returns invalid lines
		panic("core: tag hit on line in state " + st.String())
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
	// unitcheck:timestamp cycle 0 is the known BusRepl bug the recorded outputs carry; ROADMAP 3(b) passes the access cycle
	np := c.placeClosest(0, core, addr, -1, src)
	line.Data.fwd = np
	if c.frameAt(src).owner() == core {
		c.repoint(addr, src, np)
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
	// unitcheck:timestamp cycle 0 is the known BusRepl bug the recorded outputs carry; ROADMAP 3(b) passes the access cycle
	c.repoint(addr, q, c.placeClosest(0, core, addr, -1, q))
	c.releaseFrame(q)
	c.CMigrations++
}

// onProc is the protocol's requester side: the next state of core's
// copy in state s and the bus op it issues for a read or write, given
// the signals a miss samples. With in-situ communication CMP-NuRAPID
// runs MESIC (Figure 4b); without it, plain MESI (Figure 4a).
func (c *Cache) onProc(s coherence.State, write bool, sig coherence.Signals) (coherence.State, coherence.BusOp) {
	op := coherence.PrRd
	if write {
		op = coherence.PrWr
	}
	if c.cfg.EnableISC {
		return coherence.MESICProc(s, op, sig)
	}
	return coherence.MESIProc(s, op, sig)
}

// onSnoop is the protocol's snooper side: the next state of a copy in
// state s that observes op. The snoop's data action is not used: each
// flow counts its own flushes, pointer returns and write-backs.
func (c *Cache) onSnoop(s coherence.State, op coherence.BusOp) coherence.State {
	if c.cfg.EnableISC {
		next, _ := coherence.MESICSnoop(s, op)
		return next
	}
	next, _ := coherence.MESISnoop(s, op)
	return next
}

// snoopOthers applies op, issued by core for addr, to every other
// core's copy. A copy that goes to I loses its tag, and the data frame
// it owns too unless that frame is keep. A copy that stays valid under
// an invalidating op (BusRdX, BusUpg) drops its stale L1 copy: MESIC's
// InvalidateL1 for a C sharer, and an M holder joining C.
func (c *Cache) snoopOthers(core int, addr memsys.Addr, op coherence.BusOp, keep ptr) {
	for o := 0; o < topo.NumCores; o++ {
		if o == core {
			continue
		}
		ol := c.tags[o].Probe(addr)
		if ol == nil {
			continue
		}
		if next := c.onSnoop(ol.Data.state, op); next.Valid() {
			ol.Data.state = next
			if op != coherence.BusRd {
				c.dropL1(o, addr)
			}
			continue
		}
		p := ol.Data.fwd
		fr := c.frameAt(p)
		owns := p != keep && fr.valid && fr.addr == addr && fr.owner() == o
		c.killTag(o, ol)
		if owns {
			c.releaseFrame(p)
		}
	}
}

// snoopState summarizes the other cores' copies sampled by a miss.
type snoopState struct {
	coherence.Signals     // the wired-OR shared and dirty lines (§3.2)
	dirtyPtr          ptr // the single dirty data copy
	bestClean         ptr // the clean copy fastest to reach from the requester
	bestLat           memsys.Cycles
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
			s.Dirty = true
			s.dirtyPtr = ol.Data.fwd
		} else {
			s.Shared = true
			if l := c.latTo(core, ol.Data.fwd.dgroup()); l < s.bestLat {
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
	next, op := c.onProc(coherence.Invalid, write, s.Signals)
	lat := c.transact(t, op)
	t2 := t.Add(lat)

	switch {
	case s.Dirty:
		return c.missDirty(t2, core, addr, write, next, op, s.dirtyPtr, lat)
	case s.Shared:
		return c.missClean(t2, core, addr, write, next, op, s.bestClean, lat)
	}
	// Capacity miss: off-chip.
	c.stats.OffChipMisses++
	lat += c.cfg.MemLatency
	c.allocClosest(t2, core, addr, tagPayload{state: next, broughtBy: memsys.CapacityMiss}, noPin)
	return memsys.Result{Latency: lat, Category: memsys.CapacityMiss, DGroup: -1}
}

// missClean handles a miss on a block with clean on-chip copies, the
// nearest at q: a ROS miss. Reads use controlled replication; writes
// take MESI ownership.
func (c *Cache) missClean(t memsys.Cycle, core int, addr memsys.Addr, write bool, next coherence.State, op coherence.BusOp, q ptr, lat memsys.Cycles) memsys.Result {
	// The data is sampled from the nearest clean copy. BusRdX then
	// invalidates every copy; BusRd moves an E holder to S.
	lat += c.dgAccess(t, core, q.dgroup())
	c.snoopOthers(core, addr, op, noPin)
	pay := tagPayload{state: next, fwd: q, broughtBy: memsys.ROSMiss}
	switch {
	case write:
		c.allocClosest(t, core, addr, pay, noPin)
	case c.cfg.Replication == ReplicateFirstUse:
		// Uncontrolled replication: copy immediately, like a private
		// cache's cache-to-cache fill.
		c.stats.BusTransactions.Inc(memsys.LabelFlush)
		c.allocClosest(t, core, addr, pay, noPin)
	default:
		// Controlled replication (§3.1): the holder returns its forward
		// pointer on the bus's pointer wires; we keep a tag copy
		// pointing at the existing data copy and access it directly
		// through the crossbar. No data copy is made on first use.
		c.stats.BusTransactions.Inc(memsys.LabelPtrRet)
		c.stats.PointerReturns++
		c.installTag(t, core, addr, pay)
	}
	return memsys.Result{Latency: lat, Category: memsys.ROSMiss, DGroup: -1}
}

// missDirty handles a miss on a block whose dirty on-chip copy is at
// q: a RWS miss. With ISC the requester joins the communication group;
// without it the flows are plain MESI cache-to-cache transfers.
func (c *Cache) missDirty(t memsys.Cycle, core int, addr memsys.Addr, write bool, next coherence.State, op coherence.BusOp, q ptr, lat memsys.Cycles) memsys.Result {
	lat += c.dgAccess(t, core, q.dgroup())
	pay := tagPayload{state: next, fwd: q, broughtBy: memsys.RWSMiss}
	switch {
	case !c.cfg.EnableISC:
		// The M holder flushes. BusRdX invalidates it and the flush
		// reaches memory; we take our own copy in the closest d-group.
		// BusRd drops it to S, keeping its copy; we pointer-share or
		// copy per the replication policy.
		c.stats.BusTransactions.Inc(memsys.LabelFlush)
		c.snoopOthers(core, addr, op, noPin)
		if write || c.cfg.Replication == ReplicateFirstUse {
			c.allocClosest(t, core, addr, pay, noPin)
		} else {
			c.installTag(t, core, addr, pay)
		}

	case write:
		// Writer joins the communication group without copying: "the
		// writer enters C pointing its tag entry to the already-
		// existing data copy, and writes to the copy. Thus, the copy
		// stays close to the reader." (§3.2)
		c.snoopOthers(core, addr, op, q)
		c.installTag(t, core, addr, pay)

	default:
		// Reader: "the reader makes a new copy of the block in its
		// closest d-group, and the previous data copy is invalidated.
		// All the sharers enter (or remain in) C and their tag entries
		// point to the new data copy." (§3.2)
		// Our tag goes in before the snoop: snoopOthers skips us, and a
		// BusRd on a dirty block kills no tag.
		l := c.allocClosest(t, core, addr, pay, q)
		c.snoopOthers(core, addr, op, q)
		c.repoint(addr, q, l.Data.fwd) // every other holder is now in C
		c.releaseFrame(q)
		lat += c.dgAccess(t.Add(lat), core, l.Data.fwd.dgroup())
	}
	return memsys.Result{Latency: lat, Category: memsys.RWSMiss, DGroup: -1}
}
