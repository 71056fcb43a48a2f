package workload

import (
	"bytes"
	"testing"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/topo"
	"cmpnurapid/internal/trace"
)

// fillWorkload is a workload with the batched draw cmpsim refills its
// op buffers through.
type fillWorkload interface {
	cmpsim.Workload
	Fill(core int, ops []cmpsim.Op)
}

// fillRounds and fillSizes shape the batched draw: in each round every
// core draws one batch, the sizes rotating over the cores, so each
// core draws every size 16 times (17,152 ops over 64 batch ends).
const fillRounds = 64

var fillSizes = [...]int{1, 7, 64, 1000}

// checkFillEqualsNext draws every core's stream from one instance of mk
// in Fill batches of every size, interleaved across cores, and from a
// second instance one Next at a time, and fails unless the streams are
// equal op for op. It returns how many batches ended with a
// read-modify-write pair split across the boundary, as split reports.
func checkFillEqualsNext(t *testing.T, mk func() fillWorkload, split func(fillWorkload, int) bool) (splits int) {
	t.Helper()
	batched, single := mk(), mk()
	var got [topo.NumCores][]cmpsim.Op
	buf := make([]cmpsim.Op, fillSizes[len(fillSizes)-1])
	for r := 0; r < fillRounds; r++ {
		for c := 0; c < topo.NumCores; c++ {
			ops := buf[:fillSizes[(r+c)%len(fillSizes)]]
			batched.Fill(c, ops)
			got[c] = append(got[c], ops...)
			if split != nil && split(batched, c) {
				splits++
			}
		}
	}
	for c := 0; c < topo.NumCores; c++ {
		for i, op := range got[c] {
			if want := single.Next(c); op != want {
				t.Fatalf("%s core %d op %d: Fill drew %+v, Next %+v", batched.Name(), c, i, op, want)
			}
		}
	}
	return splits
}

// TestFillEqualsNext: for every Table 3 profile, every Table 2 mix and
// a loaded trace, concatenated Fill calls of sizes 1, 7, 64 and 1000
// draw exactly the ops successive Next calls draw, so cmpsim's batching
// is invisible in every stream. Some batch must end inside a migratory
// read-modify-write pair, whose store then opens the next batch.
func TestFillEqualsNext(t *testing.T) {
	splits := 0
	for _, p := range Multithreaded(42) {
		splits += checkFillEqualsNext(t, func() fillWorkload { return New(p) },
			func(w fillWorkload, c int) bool { return w.(*Generator).cores[c].hasPending })
	}
	if splits == 0 {
		t.Error("no batch ended inside a read-modify-write pair")
	}
	for _, name := range []string{"MIX1", "MIX2", "MIX3", "MIX4"} {
		checkFillEqualsNext(t, func() fillWorkload {
			w, _ := ByName(name, 42)
			return w.(*Multiprogrammed)
		}, nil)
	}
	// 10,000 recorded ops per core: each core's batches run past the
	// end of its recording into the idle ops.
	var rec bytes.Buffer
	if err := trace.Record(&rec, New(OLTP(42)), 10_000); err != nil {
		t.Fatal(err)
	}
	checkFillEqualsNext(t, func() fillWorkload {
		rp, err := trace.Load(bytes.NewReader(rec.Bytes()), "oltp-trace")
		if err != nil {
			t.Fatal(err)
		}
		return rp
	}, nil)
}
