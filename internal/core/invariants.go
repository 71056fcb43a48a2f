package core

import (
	"fmt"

	"cmpnurapid/internal/coherence"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
)

// CheckInvariants validates the cache's full pointer and coherence
// structure; tests call it during and after workloads. It panics with
// a description of the first violation found:
//
//  1. Every valid tag entry's forward pointer targets a valid frame
//     holding the tag's block address (no dangling forward pointers —
//     the failure mode BusRepl exists to prevent, §3.1).
//  2. Every valid frame's reverse pointer targets a tag entry that
//     points back at the frame (no dangling reverse pointers — the
//     failure mode shared-block demotion is forbidden to prevent,
//     §3.3.2).
//  3. Free lists exactly complement valid frames.
//  4. MESIC single-writer/single-copy rules: at most one E/M tag per
//     block on the chip; a dirty block (M or C tags) has exactly one
//     data copy and every dirty tag points at it; M never coexists
//     with any other tag copy; S and C never coexist.
func (c *Cache) CheckInvariants() {
	type blockTags struct {
		e, m, cState, s int
		frames          map[ptr]bool
	}
	blocks := map[memsys.Addr]*blockTags{}

	for coreID, ta := range c.tags {
		ta.ForEach(func(_ int, l *tagLine) {
			addr := ta.AddrOf(l)
			st := l.Data.state
			if !st.Valid() {
				panic(fmt.Sprintf("core: core %d valid tag for %#x with invalid coherence state", coreID, addr))
			}
			p := l.Data.fwd
			if p.dgroup() < 0 || p.dgroup() >= len(c.dgroups) ||
				p.frame() < 0 || p.frame() >= len(c.dgroups[p.dgroup()].frames) {
				panic(fmt.Sprintf("core: core %d tag for %#x has out-of-range pointer %v", coreID, addr, p))
			}
			fr := c.frameAt(p)
			if !fr.valid {
				panic(fmt.Sprintf("core: core %d tag for %#x (state %v) has dangling forward pointer %v",
					coreID, addr, st, p))
			}
			if fr.addr != addr {
				panic(fmt.Sprintf("core: core %d tag for %#x points at frame holding %#x", coreID, addr, fr.addr))
			}
			bt := blocks[addr]
			if bt == nil {
				bt = &blockTags{frames: map[ptr]bool{}}
				blocks[addr] = bt
			}
			bt.frames[p] = true
			switch st {
			case coherence.Exclusive:
				bt.e++
			case coherence.Modified:
				bt.m++
			case coherence.Communication:
				bt.cState++
			case coherence.Shared:
				bt.s++
			default: // Invalid — excluded by the st.Valid() check above
				panic(fmt.Sprintf("core: core %d tag for %#x in unknown state %v", coreID, addr, st))
			}
		})
	}

	// Frame-side checks.
	totalValidFrames := 0
	for gi, dg := range c.dgroups {
		valid := 0
		freeSet := map[int32]bool{}
		for _, f := range dg.free {
			if freeSet[f] {
				panic(fmt.Sprintf("core: d-group %d frame %d on free list twice", gi, f))
			}
			freeSet[f] = true
		}
		for fi := range dg.frames {
			fr := &dg.frames[fi]
			if fr.valid == freeSet[int32(fi)] {
				panic(fmt.Sprintf("core: d-group %d frame %d valid=%v but on-free-list=%v",
					gi, fi, fr.valid, freeSet[int32(fi)]))
			}
			if !fr.valid {
				continue
			}
			valid++
			p := at(gi, fi)
			owner := c.tags[fr.owner()].Probe(fr.addr)
			if owner == nil || owner.Data.fwd != p {
				panic(fmt.Sprintf("core: d-group %d frame %d (addr %#x) has dangling reverse pointer to core %d",
					gi, fi, fr.addr, fr.revCore))
			}
		}
		totalValidFrames += valid
	}

	// Block-level coherence checks.
	for addr, bt := range blocks {
		if bt.e+bt.m > 1 {
			panic(fmt.Sprintf("core: block %#x has %d exclusive-owner tags", addr, bt.e+bt.m))
		}
		total := bt.e + bt.m + bt.cState + bt.s
		if bt.m == 1 && total > 1 {
			panic(fmt.Sprintf("core: block %#x M coexists with %d other tags", addr, total-1))
		}
		if bt.e == 1 && total > 1 {
			panic(fmt.Sprintf("core: block %#x E coexists with %d other tags", addr, total-1))
		}
		if bt.cState > 0 && bt.s > 0 {
			panic(fmt.Sprintf("core: block %#x C and S tags coexist", addr))
		}
		if (bt.cState > 0 || bt.m > 0) && len(bt.frames) != 1 {
			panic(fmt.Sprintf("core: block %#x dirty with %d data copies", addr, len(bt.frames)))
		}
	}
}

// Occupancy returns the number of valid frames per d-group, for
// capacity-stealing analysis.
func (c *Cache) Occupancy() [4]int {
	var occ [4]int
	for gi, dg := range c.dgroups {
		for _, f := range dg.frames {
			if f.valid {
				occ[gi]++
			}
		}
	}
	return occ
}

// OwnershipByDGroup reports, per owning core, how many of its data
// copies sit in its own closest d-group (own) versus in other cores'
// d-groups (stolen) — the direct measure of capacity stealing.
func (c *Cache) OwnershipByDGroup() (own, stolen [4]int) {
	for gi, dg := range c.dgroups {
		for _, f := range dg.frames {
			if !f.valid {
				continue
			}
			if c.closest(f.owner()) == gi {
				own[f.revCore]++
			} else {
				stolen[f.revCore]++
			}
		}
	}
	return own, stolen
}

// TagOccupancy returns the number of valid tag entries per core.
func (c *Cache) TagOccupancy() []int {
	occ := make([]int, topo.NumCores)
	for i, ta := range c.tags {
		occ[i] = ta.CountValid()
	}
	return occ
}

// StateOf reports core's coherence state for addr (Invalid if absent)
// and, when valid, which d-group its pointer targets. Exposed for
// tests and the protocol-walkthrough example.
func (c *Cache) StateOf(core int, addr memsys.Addr) (coherence.State, int) {
	l := c.tags[core].Probe(addr.BlockAddr(c.cfg.BlockBytes))
	if l == nil {
		return coherence.Invalid, -1
	}
	return l.Data.state, l.Data.fwd.dgroup()
}
