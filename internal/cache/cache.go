// Package cache provides the generic set-associative structures every
// cache in the simulator is built from: a tag/line array with
// configurable geometry, per-set LRU, and a payload type parameter so
// the same machinery backs L1 caches, conventional L2 designs, and
// CMP-NuRAPID's pointer-carrying private tag arrays.
package cache

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"cmpnurapid/internal/memsys"
)

// Line is one tag-array entry with a caller-defined payload (coherence
// state, forward pointer, reuse counters, ...). The header is 13 bytes
// in a 16-byte slot: a payload with 1-byte alignment packs into the
// last 3, so an L1 line is 16 bytes in all.
type Line[T any] struct {
	Tag uint64
	// lastUse is the Array clock at the line's last Touch. Only its
	// order within a set matters, which is what lets the clock wrap
	// (see renormalize).
	lastUse uint32
	Valid   bool
	Data    T
}

// Geometry describes a set-associative array.
type Geometry struct {
	Sets       int
	Ways       int
	BlockBytes memsys.Bytes
}

// maxArrayBytes is the largest slice make accepts: 2^48 bytes on
// 64-bit hosts, and never more than an int can count.
const maxArrayBytes = min(1<<48, math.MaxInt)

// ValidateArray panics unless NewArray[T] can build geo: sets and
// block size are powers of two (for indexing), ways is positive, and
// the sets × ways lines fit an int and, at Line[T]'s size, one
// allocation. The last bound depends on the payload, which is why the
// check is per array type, not per geometry.
func ValidateArray[T any](geo Geometry) {
	if !pow2(geo.Sets) || !pow2(int(geo.BlockBytes)) {
		panic(fmt.Sprintf("cache: sets (%d) and block size (%d) must be powers of two",
			geo.Sets, geo.BlockBytes))
	}
	if geo.Ways <= 0 {
		panic("cache: ways must be positive")
	}
	hi, lines := bits.Mul64(uint64(geo.Sets), uint64(geo.Ways))
	if hi != 0 || lines > math.MaxInt {
		panic(fmt.Sprintf("cache: %d sets × %d ways overflow an int line count", geo.Sets, geo.Ways))
	}
	lineBytes := uint64(unsafe.Sizeof(Line[T]{}))
	if limit := uint64(maxArrayBytes) / lineBytes; lines > limit {
		panic(fmt.Sprintf("cache: %d sets × %d ways of %d-byte lines exceed the %d lines an array can allocate",
			geo.Sets, geo.Ways, lineBytes, limit))
	}
}

// GeometryFor computes sets from capacity, associativity and block
// size.
func GeometryFor(capacityBytes memsys.Bytes, ways int, blockBytes memsys.Bytes) Geometry {
	sets := capacityBytes.Per(blockBytes.Times(ways))
	if sets == 0 {
		sets = 1
	}
	return Geometry{Sets: sets, Ways: ways, BlockBytes: blockBytes}
}

// Array is a set-associative array of lines with per-set true LRU.
type Array[T any] struct {
	geo       Geometry
	blockBits uint
	setMask   uint64
	lines     []Line[T] // sets*ways, row-major by set
	clock     uint32
}

// NewArray allocates an array with the given geometry.
func NewArray[T any](geo Geometry) *Array[T] {
	ValidateArray[T](geo)
	return &Array[T]{
		geo:       geo,
		blockBits: uint(log2(int(geo.BlockBytes))),
		setMask:   uint64(geo.Sets - 1),
		lines:     make([]Line[T], geo.Sets*geo.Ways),
	}
}

// Geometry returns the array's geometry.
func (a *Array[T]) Geometry() Geometry { return a.geo }

// SetIndex returns the set an address maps to.
func (a *Array[T]) SetIndex(addr memsys.Addr) int {
	return int((uint64(addr) >> a.blockBits) & a.setMask)
}

// tagOf returns the tag bits for an address (everything above the set
// index; keeping the full shifted address keeps lookups unambiguous).
func (a *Array[T]) tagOf(addr memsys.Addr) uint64 {
	return uint64(addr) >> a.blockBits
}

// Probe returns the line holding addr, or nil on a miss. It does not
// update LRU state; pair with Touch on a real access so read-only scans
// (snoops) do not perturb replacement order. It ranges over the set's
// own subslice, which keeps it small enough for the compiler to inline
// into its callers (the set index is the tag's low bits).
//
// hotpath:root
func (a *Array[T]) Probe(addr memsys.Addr) *Line[T] {
	tag := a.tagOf(addr)
	set := a.Set(int(tag & a.setMask))
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			return &set[i]
		}
	}
	return nil
}

// Touch marks a line most-recently-used.
func (a *Array[T]) Touch(l *Line[T]) {
	if a.clock == math.MaxUint32 {
		a.renormalize()
	}
	a.clock++
	l.lastUse = a.clock
}

// renormalize runs when the clock is about to wrap. It rewrites every
// valid line's stamp to its rank among the set's valid lines (1 for
// the least recently used) and restarts the clock above every rank, so
// each set keeps its LRU order and every later victim choice is the
// one an unbounded clock would make. The valid stamps of a set are
// distinct (Touch draws each from the increasing clock, and the ranks
// sit below every later stamp), so the ranks are too.
func (a *Array[T]) renormalize() {
	// hotpath:alloc one scratch slice per 2^32 touches of an array
	rank := make([]uint32, a.geo.Ways)
	for set := 0; set < a.geo.Sets; set++ {
		lines := a.Set(set)
		for i := range lines {
			rank[i] = 0
			if !lines[i].Valid {
				continue
			}
			rank[i] = 1
			for j := range lines {
				if lines[j].Valid && lines[j].lastUse < lines[i].lastUse {
					rank[i]++
				}
			}
		}
		for i := range lines {
			lines[i].lastUse = rank[i]
		}
	}
	a.clock = uint32(a.geo.Ways)
}

// Set returns the lines of one set.
func (a *Array[T]) Set(set int) []Line[T] {
	base := set * a.geo.Ways
	return a.lines[base : base+a.geo.Ways]
}

// Victim returns the line to replace in addr's set: an invalid line if
// any, else the least recently used valid line.
func (a *Array[T]) Victim(addr memsys.Addr) *Line[T] { return a.VictimPreferring(addr, nil) }

// VictimPreferring returns the line to replace in addr's set: the first
// invalid line if any, else the least recently used line whose payload
// prefer accepts, else the least recently used line overall. A nil
// prefer accepts none, which makes it Victim. One pass over the set.
func (a *Array[T]) VictimPreferring(addr memsys.Addr, prefer func(*T) bool) *Line[T] {
	lines := a.Set(a.SetIndex(addr))
	var lru, lruPref *Line[T]
	for i := range lines {
		l := &lines[i]
		if !l.Valid {
			return l
		}
		if lru == nil || l.lastUse < lru.lastUse {
			lru = l
		}
		if prefer != nil && prefer(&l.Data) && (lruPref == nil || l.lastUse < lruPref.lastUse) {
			lruPref = l
		}
	}
	if lruPref != nil {
		return lruPref
	}
	return lru
}

// Install writes addr into line l, marks it valid and MRU, and returns
// l for chaining. The caller is responsible for having evicted the old
// contents (Victim hands back the line to inspect first).
func (a *Array[T]) Install(l *Line[T], addr memsys.Addr, data T) *Line[T] {
	l.Valid = true
	l.Tag = a.tagOf(addr)
	l.Data = data
	a.Touch(l)
	return l
}

// Invalidate clears a line.
func (a *Array[T]) Invalidate(l *Line[T]) {
	var zero T
	l.Valid = false
	l.Tag = 0
	l.Data = zero
}

// AddrOf reconstructs the block address stored in a line. (The tag
// keeps the full block address, so the set index is not needed.)
func (a *Array[T]) AddrOf(l *Line[T]) memsys.Addr {
	return memsys.Addr(l.Tag << a.blockBits)
}

// ForEach calls f for every valid line with its set index.
func (a *Array[T]) ForEach(f func(set int, l *Line[T])) {
	for i := range a.lines {
		if a.lines[i].Valid {
			f(i/a.geo.Ways, &a.lines[i])
		}
	}
}

// CountValid returns the number of valid lines.
func (a *Array[T]) CountValid() int {
	n := 0
	for i := range a.lines {
		if a.lines[i].Valid {
			n++
		}
	}
	return n
}

func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}
