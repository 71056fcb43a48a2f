package core

import (
	"fmt"

	"cmpnurapid/internal/coherence"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
)

// This file implements CMP-NuRAPID's data-array frame management and
// the two replacement forms of §3.3.2: data replacement (evicting a
// block from the cache on a miss, preferring invalid, then private,
// then shared victims) and distance replacement (demoting blocks to
// farther d-groups to create space close to a core).

// noPin is the avoid argument that protects no frame.
var noPin = ptr{g: -1, f: -1}

// takeFrame pops a free frame from dg.
func (c *Cache) takeFrame(g int) int {
	dg := c.dgroups[g]
	if len(dg.free) == 0 {
		panic("core: takeFrame on full d-group")
	}
	f := dg.free[len(dg.free)-1]
	dg.free = dg.free[:len(dg.free)-1]
	return int(f)
}

// releaseFrame invalidates p and returns it to the free list.
func (c *Cache) releaseFrame(p ptr) {
	dg := c.dgroups[p.dgroup()]
	if !dg.frames[p.frame()].valid {
		panic("core: releasing an already-free frame")
	}
	dg.frames[p.frame()] = frameInfo{}
	// hotpath:alloc free list is pre-sized to the d-group's frame count and never grows past it
	dg.free = append(dg.free, p.f)
}

// frameAt returns the frame record at p.
func (c *Cache) frameAt(p ptr) *frameInfo { return &c.dgroups[p.dgroup()].frames[p.frame()] }

// ownerLine returns the tag entry owning frame p (the reverse-pointer
// target). Panics if the reverse pointer dangles — an invariant
// violation, not a runtime condition.
func (c *Cache) ownerLine(p ptr) *tagLine {
	fr := c.frameAt(p)
	if !fr.valid {
		panic("core: ownerLine of invalid frame")
	}
	l := c.tags[fr.owner()].Probe(fr.addr)
	if l == nil || !l.Data.state.Valid() || l.Data.fwd != p {
		panic(fmt.Sprintf("core: dangling reverse pointer at %v (addr %#x, rev core %d)",
			p, fr.addr, fr.revCore))
	}
	return l
}

// pointsAt reports whether core o's tag entry for addr points at p.
// Frame-pointer scans loop over cores with this predicate instead of
// materializing a holder slice: eviction runs on the per-miss path,
// where a fresh []int per scan is a measurable allocation.
func (c *Cache) pointsAt(o int, addr memsys.Addr, p ptr) *tagLine {
	if l := c.tags[o].Probe(addr); l != nil && l.Data.state.Valid() && l.Data.fwd == p {
		return l
	}
	return nil
}

// evictFrame kills the data copy at p entirely: broadcasts BusRepl
// when the dying block is shared (so sharers with tag entries pointing
// at the frame invalidate them, §3.1), kills every tag pointing at it,
// and frees the frame.
func (c *Cache) evictFrame(now memsys.Cycle, p ptr) {
	addr := c.frameAt(p).addr
	shared := false
	for o := 0; o < topo.NumCores; o++ {
		if l := c.pointsAt(o, addr, p); l != nil && !l.Data.state.PrivateBlock() {
			shared = true
		}
	}
	if shared {
		// Replacements proceed in parallel with the miss that triggered
		// them; BusRepl costs bus bandwidth but not requester latency.
		c.post(now, coherence.BusRepl)
	}
	// killTag only touches core o's own tag, so re-probing per core
	// sees exactly the holder set the scans above saw.
	for o := 0; o < topo.NumCores; o++ {
		if l := c.pointsAt(o, addr, p); l != nil {
			c.killTag(o, l)
		}
	}
	c.releaseFrame(p)
}

// pickVictimFrame returns a random valid frame index in d-group g other
// than avoid. §3.3.2: the in-d-group choice is random because "LRU
// requires O(n^2) hardware to track n frames". avoid is §3.1's busy
// bit: "the tag for the block being read from a farther d-group [is]
// marked busy ... replacement invalidations will be inhibited until the
// read has completed", so a demotion chain clearing space for a CR or
// ISC copy cannot evict the copy's source.
func (c *Cache) pickVictimFrame(g int, avoid ptr) int {
	dg := c.dgroups[g]
	n := len(dg.frames)
	for try := 0; try < 8; try++ {
		vi := c.rand.Intn(n)
		if dg.frames[vi].valid && at(g, vi) != avoid {
			return vi
		}
	}
	start := c.rand.Intn(n)
	for i := 0; i < n; i++ {
		vi := (start + i) % n
		if dg.frames[vi].valid && at(g, vi) != avoid {
			return vi
		}
	}
	panic("core: no evictable frame in d-group")
}

// freeFrameIn obtains a free frame in d-group g for core, running the
// distance-replacement demotion chain when g is full: a random private
// victim is demoted to the next-fastest (for core) d-group, repeating
// until the stop d-group; random shared victims and victims at the
// stop d-group are evicted outright, which also ends the chain.
// stop < 0 means "non-specific": a random stop d-group is drawn from
// the d-groups farther than the originating one (§3.3.2: "we break
// this cycle by choosing a d-group at random to stop the demotions" —
// the cycle being broken is the demotion loop around the farther
// d-groups, so the originating d-group itself is excluded; stopping
// there would evict locally even while neighbours sit empty). No
// victim in the chain is the frame avoid.
func (c *Cache) freeFrameIn(now memsys.Cycle, core, g, stop int, avoid ptr) int {
	if stop < 0 {
		if r := topo.Rank(core, g); r < topo.NumDGroups-1 {
			stop = topo.Preference[core][r+1+c.rand.Intn(topo.NumDGroups-1-r)]
		} else {
			stop = g // already farthest: evict here
		}
	}
	return c.freeFrameRec(now, core, g, stop, avoid, 0)
}

func (c *Cache) freeFrameRec(now memsys.Cycle, core, g, stop int, avoid ptr, depth int) int {
	if depth > topo.NumDGroups {
		panic("core: demotion chain did not terminate")
	}
	dg := c.dgroups[g]
	if len(dg.free) > 0 {
		return c.takeFrame(g)
	}
	vi := c.pickVictimFrame(g, avoid)
	p := at(g, vi)
	owner := c.ownerLine(p)
	next, hasNext := topo.NextSlower(core, g)
	// Shared victims are evicted, never demoted (§3.3.2: demoting a
	// shared block would leave a dangling reverse pointer after a CR
	// re-copy). Private victims demote unless the chain stops here.
	if !owner.Data.state.PrivateBlock() || g == stop || !hasNext {
		c.evictFrame(now, p)
		return c.takeFrame(g)
	}
	nf := c.freeFrameRec(now, core, next, stop, avoid, depth+1)
	c.moveFrame(p, at(next, nf))
	c.stats.Demotions++
	return c.takeFrame(g)
}

// moveFrame relocates the (private) block at src into the already-free
// frame dst, updating the owner tag's forward pointer and the new
// frame's reverse pointer.
func (c *Cache) moveFrame(src, dst ptr) {
	fr := *c.frameAt(src)
	owner := c.ownerLine(src)
	if !owner.Data.state.PrivateBlock() {
		panic("core: moveFrame on a shared block")
	}
	c.releaseFrame(src)
	*c.frameAt(dst) = fr
	owner.Data.fwd = dst
}

// tagVictim selects the replacement victim in core's tag set for addr,
// in the paper's order: invalid first, then private (E/M), then shared
// (S/C), LRU within each category (§3.3.2).
func (c *Cache) tagVictim(core int, addr memsys.Addr) *tagLine {
	return c.tags[core].VictimPreferring(addr, func(p *tagPayload) bool { return p.state.PrivateBlock() })
}

// evictTagEntry removes core's tag entry l from the cache, handling
// the data-side consequences per §3.3.2, and returns the d-group where
// a frame was freed (the specific target for distance replacement), or
// -1 when no frame was freed (pointer-only entries and invalid lines).
func (c *Cache) evictTagEntry(now memsys.Cycle, core int, l *tagLine) int {
	if !l.Valid {
		return -1
	}
	addr := c.tags[core].AddrOf(l)
	p := l.Data.fwd
	st := l.Data.state
	fr := c.frameAt(p)
	owns := fr.valid && fr.addr == addr && fr.owner() == core

	if st.PrivateBlock() {
		// Private block: the data is evicted; its frame frees space in
		// some d-group, which becomes the demotion chain's target.
		c.killTag(core, l)
		c.releaseFrame(p)
		return p.dgroup()
	}

	if owns {
		// Shared block whose data copy we placed: evict the copy and
		// BusRepl-invalidate every other tag pointing at it.
		c.evictFrame(now, p)
		return p.dgroup()
	}

	// Shared block reached through someone else's copy: drop only the
	// tag; "the data block is not evicted and it is left for the other
	// sharers" (§3.3.2).
	c.killTag(core, l)
	return -1
}

// installTag places a new tag entry for addr in core's array with the
// given payload, evicting a victim per the data-replacement policy
// first. When the new entry needs a data frame in core's closest
// d-group, the caller allocates it via allocClosest (which uses the
// freed d-group as the demotion target).
func (c *Cache) installTag(now memsys.Cycle, core int, addr memsys.Addr, pay tagPayload) *tagLine {
	v := c.tagVictim(core, addr)
	c.evictTagEntry(now, core, v)
	return c.tags[core].Install(v, addr, pay)
}

// allocClosest evicts a tag victim and places core's copy of addr in
// its closest d-group, using the d-group the eviction freed as the
// demotion target, and returns the installed tag line. This is the
// common "bring a block into the cache near me" path (§3.3.1:
// "CMP-NuRAPID initially places all private blocks in the data d-group
// closest to the initiating core"). The demotion chain spares avoid.
func (c *Cache) allocClosest(now memsys.Cycle, core int, addr memsys.Addr, pay tagPayload, avoid ptr) *tagLine {
	v := c.tagVictim(core, addr)
	freed := c.evictTagEntry(now, core, v)
	pay.fwd = c.placeClosest(now, core, addr, freed, avoid)
	return c.tags[core].Install(v, addr, pay)
}

// placeClosest takes a frame in core's closest d-group, running the
// demotion chain toward stop (random when < 0) without evicting avoid,
// and records core's copy of addr in it. Every new data copy goes
// through here: fills, CR's second-use copy, ISC's reader move and the
// stuck-C migration.
func (c *Cache) placeClosest(now memsys.Cycle, core int, addr memsys.Addr, stop int, avoid ptr) ptr {
	cl := c.closest(core)
	p := at(cl, c.freeFrameIn(now, core, cl, stop, avoid))
	*c.frameAt(p) = frameInfo{addr: addr, revCore: int8(core), valid: true}
	return p
}

// repoint moves every tag of addr that points at from to point at to.
func (c *Cache) repoint(addr memsys.Addr, from, to ptr) {
	for o := 0; o < topo.NumCores; o++ {
		if l := c.pointsAt(o, addr, from); l != nil {
			l.Data.fwd = to
		}
	}
}

// promote applies the CS promotion policy to core's private block l
// that just hit in a non-closest d-group (§3.3.1).
func (c *Cache) promote(now memsys.Cycle, core int, l *tagLine) {
	if c.cfg.Promotion == NoPromotion {
		return
	}
	cur := l.Data.fwd.dgroup()
	target := c.closest(core)
	if c.cfg.Promotion == NextFastest {
		var ok bool
		target, ok = topo.NextFaster(core, cur)
		if !ok {
			return
		}
	}
	if target == cur {
		return
	}
	src := l.Data.fwd
	dg := c.dgroups[target]
	if len(dg.free) > 0 {
		nf := c.takeFrame(target)
		c.moveFrame(src, at(target, nf))
		c.stats.Promotions++
		return
	}
	// No free frame: swap with a random victim. A private victim
	// demotes into the promoted block's old frame; a shared victim is
	// evicted (shared blocks never move, §3.3.1/§3.3.2).
	vi := c.pickVictimFrame(target, noPin)
	vp := at(target, vi)
	if vp == src {
		return
	}
	victimOwner := c.ownerLine(vp)
	if victimOwner.Data.state.PrivateBlock() {
		// Swap: move victim out to a scratch ptr first. Using the
		// source frame directly keeps this a two-assignment swap.
		vfr := *c.frameAt(vp)
		sfr := *c.frameAt(src)
		*c.frameAt(vp) = sfr
		*c.frameAt(src) = vfr
		l.Data.fwd = vp
		victimOwner.Data.fwd = src
		c.stats.Promotions++
		c.stats.Demotions++
		return
	}
	c.evictFrame(now, vp)
	nf := c.takeFrame(target)
	c.moveFrame(src, at(target, nf))
	c.stats.Promotions++
}
