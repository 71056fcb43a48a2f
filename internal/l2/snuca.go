package l2

import (
	"fmt"
	"math/bits"

	"cmpnurapid/internal/bus"
	"cmpnurapid/internal/cache"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
)

// Policy is where an SNUCA lets a block live.
type Policy int8

const (
	// Static pins every block to the one bank its address interleaves
	// to: CMP-SNUCA from [6] (similar to Piranha's banked shared cache
	// [4]), the non-uniform-shared baseline.
	Static Policy = iota
	// Migrate models CMP-DNUCA from [6]: blocks migrate between banks
	// toward their requesters (still one copy per block). The paper
	// cites [6]'s negative result — "realistic CMP-DNUCA [performs]
	// worse than CMP-SNUCA" and "migration is ineffective in the
	// presence of sharing because each sharer pulls the block toward
	// it, leaving the block in the middle, far away from all the
	// sharers" — and this policy lets the repository demonstrate both:
	//
	//   - Migration is bankset-restricted, as in [6]: a block may only
	//     live in the two banks of its address's bankset, so — unlike
	//     CMP-NuRAPID's distance associativity — a core can never
	//     gather all its hot blocks in its closest bank.
	//   - A lookup *searches* the bankset in the requester's preference
	//     order, each wrong probe costing a full bank round-trip (the
	//     incremental search that makes realistic DNUCA slow; the
	//     requester cannot know where migration left the block).
	//   - A hit in the less-preferred bank migrates the block toward the
	//     requester, swapping with a victim when the target bank is
	//     full. Sharers pulling in different directions bounce the
	//     block back and forth.
	Migrate
)

// SNUCA is a banked shared cache: the address space is statically
// interleaved across banksets, each bank has a distinct latency from
// each core, and — the property that distinguishes it from
// CMP-NuRAPID — there is no replication, so a shared block sits in a
// bank of its address's bankset, equidistant from nobody in
// particular. Under Static every bankset is one bank; under Migrate
// the four banks form two banksets of two.
//
// Bank latencies are the d-group data latencies plus a switched-network
// overhead: [6]'s banks are reached through a switch fabric with
// distributed tags rather than CMP-NuRAPID's core-adjacent private tags
// and direct crossbar. NetOverhead is calibrated so the design lands
// where the paper measures it — a few percent above uniform-shared,
// well short of ideal (Figure 6).
type SNUCA struct {
	migrate bool // the policy is Migrate, not Static
	banks   []*cache.Array[sharedPayload]
	il      interleave // one bankset per select value
	// order[core][set] lists bankset set's banks (the first width of
	// them), nearest to core first; banksetOf inverts it.
	order      [topo.NumCores][topo.NumDGroups][2]int
	width      int
	banksetOf  [topo.NumDGroups]int
	ports      []bus.Port
	lat        [topo.NumCores][topo.NumDGroups]memsys.Cycles
	memLatency memsys.Cycles
	stats      *memsys.L2Stats
	l1inv      func(core int, addr memsys.Addr)
	// Migrations counts inter-bank block moves.
	Migrations uint64
}

// SNUCANetOverhead is the per-access switched-network and distributed-
// tag overhead in cycles added to each bank's wire-distance latency.
const SNUCANetOverhead memsys.Cycles = 20

// snucaSlotCycles is a bank's issue interval: SNUCA banks are
// pipelined (they are ordinary banked-cache banks), unlike
// CMP-NuRAPID's deliberately unpipelined d-groups (§3.3.2).
const snucaSlotCycles memsys.Cycles = 4

// migratingBanksets are the banks each Migrate bankset spans: with
// four banks there are two banksets — diagonal pairs {a,d} and {b,c} —
// so every core has one bankset whose nearest member is its closest
// bank and one whose members are both a middle-distance hop away.
var migratingBanksets = [][]int{{0, 3}, {1, 2}}

// NewSNUCA builds the paper-scale configuration under policy: four
// 2 MB 8-way banks at the Table 1 d-group distances plus the network
// overhead.
func NewSNUCA(policy Policy) *SNUCA {
	l := topo.Derive()
	return NewSNUCAWith(policy, topo.DGroupBytes, topo.PrivateAssoc, topo.BlockBytes,
		l.DGroupData, SNUCANetOverhead, 300)
}

// NewSNUCAWith builds an SNUCA with explicit geometry and timing.
func NewSNUCAWith(policy Policy, bankBytes memsys.Bytes, ways int, blockBytes memsys.Bytes, dist [topo.NumCores][topo.NumDGroups]memsys.Cycles, netOverhead, memLatency memsys.Cycles) *SNUCA {
	sets := [][]int{{0}, {1}, {2}, {3}}
	if policy == Migrate {
		sets = migratingBanksets
	} else if policy != Static {
		panic(fmt.Sprintf("l2: unknown SNUCA policy %d", int(policy)))
	}
	s := &SNUCA{
		migrate:    policy == Migrate,
		il:         newInterleave(blockBytes, len(sets)),
		width:      len(sets[0]),
		ports:      make([]bus.Port, topo.NumDGroups),
		memLatency: memLatency,
		stats:      memsys.NewL2Stats(),
	}
	for c := 0; c < topo.NumCores; c++ {
		for b := 0; b < topo.NumDGroups; b++ {
			s.lat[c][b] = dist[c][b] + netOverhead
		}
	}
	for set, banks := range sets {
		for c := 0; c < topo.NumCores; c++ {
			copy(s.order[c][set][:], banks)
			if s.width == 2 && s.lat[c][banks[1]] < s.lat[c][banks[0]] {
				s.order[c][set][0], s.order[c][set][1] = banks[1], banks[0]
			}
		}
		for _, b := range banks {
			s.banksetOf[b] = set
		}
	}
	for b := 0; b < topo.NumDGroups; b++ {
		s.banks = append(s.banks, cache.NewArray[sharedPayload](
			cache.GeometryFor(bankBytes, ways, blockBytes)))
	}
	return s
}

// Name implements memsys.L2.
func (s *SNUCA) Name() string {
	if s.migrate {
		return "non-uniform-shared-dynamic"
	}
	return "non-uniform-shared"
}

// Stats implements memsys.L2.
func (s *SNUCA) Stats() *memsys.L2Stats { return s.stats }

// SetL1Invalidate implements memsys.L1Invalidator.
func (s *SNUCA) SetL1Invalidate(fn func(core int, addr memsys.Addr)) { s.l1inv = fn }

// interleave statically spreads block addresses over n banksets (a
// power of two: 4 banks, or 2 banksets of 2) by the low bits of the
// block number, and folds those select bits out of the address a bank
// indexes with. Without the fold every block in a bankset's banks would
// have a block number congruent to its select value mod n, its set
// index would inherit that residue, and all but 1/n of each bank's sets
// would go unused.
type interleave struct {
	blockBits uint
	selBits   uint // log2 n
}

func newInterleave(blockBytes memsys.Bytes, n int) interleave {
	return interleave{
		blockBits: uint(bits.TrailingZeros64(uint64(blockBytes))),
		selBits:   uint(bits.TrailingZeros64(uint64(n))),
	}
}

// sel returns the bankset addr interleaves to.
func (il interleave) sel(addr memsys.Addr) int {
	return int(uint64(addr) >> il.blockBits & (1<<il.selBits - 1))
}

// inner folds the select bits out of addr: the block address the bank
// stores and indexes with.
func (il interleave) inner(addr memsys.Addr) memsys.Addr {
	return memsys.Addr(uint64(addr) >> (il.blockBits + il.selBits) << il.blockBits)
}

// outer inverts inner for select value sel, reconstructing the block
// address (for L1 invalidation of an evicted block).
func (il interleave) outer(inner memsys.Addr, sel int) memsys.Addr {
	return memsys.Addr((uint64(inner)>>il.blockBits<<il.selBits | uint64(sel)) << il.blockBits)
}

// bankset returns the banks addr may live in, nearest to core first.
func (s *SNUCA) bankset(core int, addr memsys.Addr) []int {
	return s.order[core][s.il.sel(addr)][:s.width]
}

// BankOf returns the bank currently holding addr, or -1 (exposed for
// tests and the migration analysis).
func (s *SNUCA) BankOf(addr memsys.Addr) int {
	inner := s.il.inner(addr)
	for _, b := range s.bankset(0, addr) {
		if s.banks[b].Probe(inner) != nil {
			return b
		}
	}
	return -1
}

// LineState implements memsys.LineStateProber for stall diagnostics:
// a shared design has no per-core coherence state, so it reports
// residency and the bank holding the block, or under Static the one
// bank it would live in.
func (s *SNUCA) LineState(core int, addr memsys.Addr) string {
	if b := s.BankOf(addr); b >= 0 {
		return fmt.Sprintf("resident(bank%d)", b)
	}
	if s.migrate {
		return "absent"
	}
	return fmt.Sprintf("absent(bank%d)", s.il.sel(addr))
}

// CheckInvariants verifies the single-copy property: no block appears
// twice, in one bank (an install that skipped the probe) or in both
// banks of its bankset (a migration that copied without invalidating).
func (s *SNUCA) CheckInvariants() {
	seen := map[memsys.Addr]int{}
	for b, bank := range s.banks {
		bank.ForEach(func(_ int, l *cache.Line[sharedPayload]) {
			a := s.il.outer(bank.AddrOf(l), s.banksetOf[b])
			if prev, dup := seen[a]; dup {
				panic(fmt.Sprintf("l2: %s holds block %#x twice, in banks %d and %d", s.Name(), a, prev, b))
			}
			seen[a] = b
		})
	}
}

// Access implements memsys.L2: a search of the bankset in the
// requester's preference order. Under Static the one bank's port is
// taken before the probe, hit or miss. Under Migrate a wrong probe
// costs a full round to that bank and takes no port — the requester
// cannot know where migration left the block — and a hit in the
// less-preferred bank migrates the block toward the requester.
//
// hotpath:root
func (s *SNUCA) Access(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Result {
	set := s.bankset(core, addr)
	inner := s.il.inner(addr)
	var lat memsys.Cycles
	for i, b := range set {
		l := s.banks[b].Probe(inner)
		if l == nil && s.migrate {
			lat += s.lat[core][b]
			continue
		}
		start := s.ports[b].Acquire(now.Add(lat), snucaSlotCycles)
		lat += start.Sub(now.Add(lat)) + s.lat[core][b]
		if l == nil {
			break
		}
		s.banks[b].Touch(l)
		closest := b == topo.Closest(core)
		if i > 0 {
			s.migrateBlock(l, inner, b, set[0])
		}
		res := memsys.Result{Latency: lat, Category: memsys.Hit, DGroup: b, ClosestDGroup: closest}
		s.stats.RecordAccess(res)
		return res
	}

	// Miss: place in the bankset's bank nearest the requester.
	s.stats.OffChipMisses++
	lat += s.memLatency
	s.install(inner, set[0])
	res := memsys.Result{Latency: lat, Category: memsys.CapacityMiss, DGroup: -1}
	s.stats.RecordAccess(res)
	_ = write // writes allocate identically; the L1s handle dirtiness
	return res
}

// migrateBlock moves the block at in-bank address inner, held in line
// src of bank `from`, to bank `to` of its bankset. A victim displaced
// from `to` takes the vacated slot in `from` — the swap that keeps
// occupancy constant. Both banks belong to one bankset, so every
// in-bank address here means the same block in either bank.
func (s *SNUCA) migrateBlock(src *cache.Line[sharedPayload], inner memsys.Addr, from, to int) {
	s.banks[from].Invalidate(src)
	if v := s.banks[to].Victim(inner); v.Valid {
		displaced := s.banks[to].AddrOf(v)
		s.banks[to].Invalidate(v)
		s.install(displaced, from)
	}
	s.install(inner, to)
	s.Migrations++
}

// install places the block at in-bank address inner into bank b,
// evicting as needed.
func (s *SNUCA) install(inner memsys.Addr, b int) {
	v := s.banks[b].Victim(inner)
	if v.Valid {
		s.evict(b, v)
	}
	s.banks[b].Install(v, inner, sharedPayload{})
}

// evict preserves inclusion for the block dying in line l of bank b:
// every core's L1 may hold it.
func (s *SNUCA) evict(b int, l *cache.Line[sharedPayload]) {
	if s.l1inv != nil {
		addr := s.il.outer(s.banks[b].AddrOf(l), s.banksetOf[b])
		for c := 0; c < topo.NumCores; c++ {
			s.l1inv(c, addr)
		}
	}
}
