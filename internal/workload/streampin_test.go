package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/topo"
)

// pinOps is the number of ops per core each stream pin hashes.
const pinOps = 20000

// streamHash returns the FNV-1a hash of the first pinOps ops of every
// core, drawn core by core (all of core 0, then all of core 1, ...).
func streamHash(w cmpsim.Workload) uint64 {
	h := fnv.New64a()
	var buf [17]byte
	flag := func(b bool) byte {
		if b {
			return 1
		}
		return 0
	}
	for c := 0; c < topo.NumCores; c++ {
		for i := 0; i < pinOps; i++ {
			op := w.Next(c)
			binary.LittleEndian.PutUint64(buf[0:], uint64(op.Compute))
			binary.LittleEndian.PutUint64(buf[8:], uint64(op.Addr))
			buf[16] = flag(op.Write) | flag(op.Instr)<<1 | flag(op.NoMem)<<2
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestStreamPins pins every reference stream the simulator runs: the
// five Table 3 profiles, the four Table 2 mixes and the adversarial
// catalogue. Any change to a generator, a Zipf table, the Zipf sampler
// or the rng draws moves a hash. The constants were recorded from the
// binary-search Zipf sampler, so they also pin the guide-table sampler
// to the same ranks.
func TestStreamPins(t *testing.T) {
	want := map[string]uint64{
		"oltp":               0x43c099f043b2b2aa,
		"apache":             0x3c687d58ae3e5819,
		"specjbb":            0xc310c7ebdbfa581b,
		"ocean":              0x7a4fa65f50ca2ec7,
		"barnes":             0x670fc83691afc053,
		"MIX1":               0x14b3d155cb346427,
		"MIX2":               0xd8a19fec16711aef,
		"MIX3":               0xf190253555e2aac4,
		"MIX4":               0x28ac6dfbc8337d3c,
		"adv-hammer":         0x9829d0c6389fc625,
		"adv-all-shared":     0xc7dbec3c3eafd557,
		"adv-max-threads":    0x407458bd492e9764,
		"adv-zero-footprint": 0x3c86ca80178edda5,
		"adv-hammer-1thread": 0x686da43cb7ecafc5,
	}
	var ws []cmpsim.Workload
	for _, p := range Multithreaded(42) {
		ws = append(ws, New(p))
	}
	for _, m := range Mixes(42) {
		ws = append(ws, m)
	}
	ws = append(ws, Adversarial(42)...)
	if len(ws) != len(want) {
		t.Fatalf("%d streams, %d pins", len(ws), len(want))
	}
	for _, w := range ws {
		if got := streamHash(w); got != want[w.Name()] {
			t.Errorf("%s: stream hash %#x, pinned %#x", w.Name(), got, want[w.Name()])
		}
	}
}
