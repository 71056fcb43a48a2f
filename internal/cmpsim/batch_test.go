package cmpsim

import (
	"reflect"
	"testing"

	"cmpnurapid/internal/core"
	"cmpnurapid/internal/l2"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/rng"
	"cmpnurapid/internal/topo"
)

// oneOpBuffers cuts every core's op buffer to one op, so each step
// refills it with one op: the unbatched draw. s must not have been
// stepped yet.
func oneOpBuffers(s *System) {
	for _, cs := range s.cores {
		cs.ops, cs.pos = cs.ops[:1], 1
	}
}

// perCoreWorkload gives each core its own diffWorkload stream, so a
// core's ops depend only on its own earlier draws (the Workload
// contract) and any batching draws the same ops. It has no Fill: it
// runs the Next adapter.
type perCoreWorkload [topo.NumCores]*diffWorkload

func newPerCore(seed uint64) *perCoreWorkload {
	var w perCoreWorkload
	root := rng.New(seed)
	for c := range w {
		w[c] = &diffWorkload{r: root.Split()}
	}
	return &w
}

func (w *perCoreWorkload) Name() string     { return "per-core" }
func (w *perCoreWorkload) Next(core int) Op { return w[core].Next(core) }

// TestBatchingIsInvisible: a system that draws each core's ops 64 at a
// time and one that draws them one at a time report identical Results
// for every phase, so ops drawn ahead in a Warmup and executed in the
// following Run (or left over from one Run for the next) change
// nothing. It covers the Next adapter (perCoreWorkload) and a
// workload's own Fill (benchWorkload) on three L2 families.
func TestBatchingIsInvisible(t *testing.T) {
	designs := map[string]func() memsys.L2{
		"shared":      sharedL2,
		"private":     func() memsys.L2 { return l2.NewPrivate(l2.MESI, topo.Derive()) },
		"cmp-nurapid": func() memsys.L2 { return core.New(core.DefaultConfig()) },
	}
	workloads := map[string]func() Workload{
		"next-adapter": func() Workload { return newPerCore(5) },
		"fill":         func() Workload { return &benchWorkload{} },
	}
	for dn, mk := range designs {
		for wn, mkw := range workloads {
			batched := New(smallCfg(), mk(), mkw())
			single := New(smallCfg(), mk(), mkw())
			oneOpBuffers(single)
			if len(batched.cores[0].ops) != opBatch {
				t.Fatalf("default buffer holds %d ops, want %d", len(batched.cores[0].ops), opBatch)
			}
			for i, n := range []int{301, 1003, 777} {
				batched.Warmup(n)
				single.Warmup(n)
				br, sr := batched.Run(uint64(n)), single.Run(uint64(n))
				if !reflect.DeepEqual(br, sr) {
					t.Fatalf("%s/%s phase %d: results diverge:\nbatched: %+v\nsingle:  %+v", dn, wn, i, br, sr)
				}
			}
		}
	}
}
