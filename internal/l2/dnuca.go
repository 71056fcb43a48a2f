package l2

import (
	"fmt"

	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/cache"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
)

// DNUCA models CMP-DNUCA from [6]: a banked shared cache where blocks
// *migrate* between banks toward their requesters (no replication —
// one copy per block, like SNUCA). The paper cites [6]'s negative
// result — "realistic CMP-DNUCA [performs] worse than CMP-SNUCA" and
// "migration is ineffective in the presence of sharing because each
// sharer pulls the block toward it, leaving the block in the middle,
// far away from all the sharers" — and this model lets the repository
// demonstrate both effects:
//
//   - Migration is bankset-restricted, as in [6]: a block may only
//     live in the banks of its address's bankset (half the banks
//     here), so — unlike CMP-NuRAPID's distance associativity — a core
//     can never gather all its hot blocks in its closest bank.
//   - A lookup *searches* the bankset: banks are probed in the
//     requester's preference order, each wrong probe costing a full
//     bank round-trip (the incremental search that makes realistic
//     DNUCA slow; the requester cannot know where migration left the
//     block).
//   - A hit in a non-preferred bank migrates the block toward the
//     requester within its bankset, swapping with a victim when the
//     target bank is full. Sharers pulling in different directions
//     bounce the block back and forth.
type DNUCA struct {
	banks      []*cache.Array[sharedPayload]
	il         interleave // one bankset per select value
	ports      []bus.Port
	lat        [topo.NumCores][topo.NumDGroups]memsys.Cycles
	memLatency memsys.Cycles
	stats      *memsys.L2Stats
	l1inv      func(core int, addr memsys.Addr)
	// Migrations counts inter-bank block moves.
	Migrations uint64
}

// NewDNUCA builds the paper-scale configuration: the SNUCA geometry
// plus migration and incremental search.
func NewDNUCA() *DNUCA {
	l := topo.Derive()
	return NewDNUCAWith(topo.DGroupBytes, topo.PrivateAssoc, topo.BlockBytes,
		l.DGroupData, SNUCANetOverhead, 300)
}

// NewDNUCAWith builds a DNUCA with explicit geometry and timing.
func NewDNUCAWith(bankBytes memsys.Bytes, ways int, blockBytes memsys.Bytes, dist [topo.NumCores][topo.NumDGroups]memsys.Cycles, netOverhead, memLatency memsys.Cycles) *DNUCA {
	d := &DNUCA{
		il:         newInterleave(blockBytes, len(dnucaBanksets)),
		ports:      make([]bus.Port, topo.NumDGroups),
		memLatency: memLatency,
		stats:      memsys.NewL2Stats(),
	}
	for c := 0; c < topo.NumCores; c++ {
		for b := 0; b < topo.NumDGroups; b++ {
			d.lat[c][b] = dist[c][b] + netOverhead
		}
	}
	for b := 0; b < topo.NumDGroups; b++ {
		d.banks = append(d.banks, cache.NewArray[sharedPayload](
			cache.GeometryFor(bankBytes, ways, blockBytes)))
	}
	return d
}

// Name implements memsys.L2.
func (d *DNUCA) Name() string { return "non-uniform-shared-dynamic" }

// Stats implements memsys.L2.
func (d *DNUCA) Stats() *memsys.L2Stats { return d.stats }

// SetL1Invalidate implements memsys.L1Invalidator.
func (d *DNUCA) SetL1Invalidate(fn func(core int, addr memsys.Addr)) { d.l1inv = fn }

// dnucaBanksets are the banks each bankset spans: with four banks
// there are two banksets — diagonal pairs {a,d} and {b,c} — so every
// core has one bankset whose nearest member is its closest bank and
// one whose members are both a middle-distance hop away. A bank holds
// only its bankset's blocks, so it indexes with the bankset bit folded
// out of the address (interleave.inner), like a SNUCA bank.
var dnucaBanksets = [2][2]int{{0, 3}, {1, 2}}

// dnucaBanksetOf inverts dnucaBanksets: the bankset of each bank.
var dnucaBanksetOf = [topo.NumDGroups]int{0, 1, 1, 0}

// bankset returns the banks addr may live in, ordered by the
// requester's preference.
func (d *DNUCA) bankset(core int, addr memsys.Addr) [2]int {
	set := dnucaBanksets[d.il.sel(addr)]
	if d.lat[core][set[1]] < d.lat[core][set[0]] {
		set[0], set[1] = set[1], set[0]
	}
	return set
}

// BankOf returns the bank currently holding addr, or -1 (exposed for
// tests and the migration analysis).
func (d *DNUCA) BankOf(addr memsys.Addr) int {
	inner := d.il.inner(addr)
	for _, b := range dnucaBanksets[d.il.sel(addr)] {
		if d.banks[b].Probe(inner) != nil {
			return b
		}
	}
	return -1
}

// LineState implements memsys.LineStateProber for stall diagnostics:
// residency plus the bank currently holding the block.
func (d *DNUCA) LineState(core int, addr memsys.Addr) string {
	if b := d.BankOf(addr); b >= 0 {
		return fmt.Sprintf("resident(bank%d)", b)
	}
	return "absent"
}

// Access implements memsys.L2: incremental search of the bankset in
// the requester's preference order, migration toward the requester on
// a hit in the less-preferred bank.
//
// hotpath:root
func (d *DNUCA) Access(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Result {
	set := d.bankset(core, addr)
	inner := d.il.inner(addr)
	var lat memsys.Cycles
	for i, b := range set {
		if l := d.banks[b].Probe(inner); l != nil {
			d.banks[b].Touch(l)
			start := d.ports[b].Acquire(now.Add(lat), snucaSlotCycles)
			lat += start.Sub(now.Add(lat)) + d.lat[core][b]
			closest := b == topo.Closest(core)
			if i > 0 {
				d.migrate(inner, b, set[0])
			}
			res := memsys.Result{Latency: lat, Category: memsys.Hit, DGroup: b,
				ClosestDGroup: closest}
			d.stats.RecordAccess(res)
			return res
		}
		// A wrong probe costs a full round to that bank: the requester
		// cannot know where migration left the block.
		lat += d.lat[core][b]
	}

	// Miss: place in the bankset's bank nearest the requester.
	d.stats.OffChipMisses++
	lat += d.memLatency
	d.install(inner, set[0])
	res := memsys.Result{Latency: lat, Category: memsys.CapacityMiss, DGroup: -1}
	d.stats.RecordAccess(res)
	_ = write
	return res
}

// migrate moves the block at in-bank address inner from bank `from` to
// bank `to` within its bankset, swapping with a victim when the target
// is full. Both banks belong to one bankset, so every in-bank address
// here means the same block in either bank.
func (d *DNUCA) migrate(inner memsys.Addr, from, to int) {
	if to == from {
		return
	}
	src := d.banks[from].Probe(inner)
	if src == nil {
		return
	}
	d.banks[from].Invalidate(src)
	// Displaced victim (if any) moves to the vacated slot in `from` —
	// the swap that keeps occupancy constant.
	v := d.banks[to].Victim(inner)
	if v.Valid {
		displaced := d.banks[to].AddrOf(v)
		d.banks[to].Invalidate(v)
		fv := d.banks[from].Victim(displaced)
		if fv.Valid {
			// Conflict in the vacated set: evict outright (inclusion).
			d.evict(from, fv)
			d.banks[from].Invalidate(fv)
		}
		d.banks[from].Install(fv, displaced, sharedPayload{})
	}
	nv := d.banks[to].Victim(inner)
	if nv.Valid {
		d.evict(to, nv)
		d.banks[to].Invalidate(nv)
	}
	d.banks[to].Install(nv, inner, sharedPayload{})
	d.Migrations++
}

// install places the block at in-bank address inner into bank b,
// evicting as needed.
func (d *DNUCA) install(inner memsys.Addr, b int) {
	v := d.banks[b].Victim(inner)
	if v.Valid {
		d.evict(b, v)
	}
	d.banks[b].Install(v, inner, sharedPayload{})
}

// evict preserves inclusion for the block dying in line l of bank b.
func (d *DNUCA) evict(b int, l *cache.Line[sharedPayload]) {
	if d.l1inv != nil {
		addr := d.il.outer(d.banks[b].AddrOf(l), dnucaBanksetOf[b])
		for c := 0; c < topo.NumCores; c++ {
			d.l1inv(c, addr)
		}
	}
}

// CheckInvariants verifies the single-copy property: no block appears
// in two banks.
func (d *DNUCA) CheckInvariants() {
	seen := map[memsys.Addr]int{}
	for b, arr := range d.banks {
		arr.ForEach(func(_ int, l *cache.Line[sharedPayload]) {
			a := d.il.outer(arr.AddrOf(l), dnucaBanksetOf[b])
			if prev, dup := seen[a]; dup {
				panic(fmt.Sprintf("l2: DNUCA block %#x duplicated in banks %d and %d", a, prev, b))
			}
			seen[a] = b
		})
	}
}
