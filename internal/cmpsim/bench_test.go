package cmpsim

import (
	"runtime"
	"testing"
	"unsafe"

	"cmpnurapid/internal/cache"
	"cmpnurapid/internal/core"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
)

// benchWorkload is an allocation-free deterministic stream: each core
// walks a private 32 KB window with periodic stores and periodic
// references into a shared region (so replication, coherence and the
// bus all stay exercised). State is four counters — drawing never
// allocates, keeping the benchmark a measurement of the simulator's
// per-cycle path alone. It has a Fill, as the production workloads
// do, so the benchmarks run the batched refill path.
type benchWorkload struct {
	n [topo.NumCores]uint64
}

func (w *benchWorkload) Next(c int) Op {
	var op [1]Op
	w.Fill(c, op[:])
	return op[0]
}

// Fill writes core c's next len(ops) ops.
//
// hotpath:root
func (w *benchWorkload) Fill(c int, ops []Op) {
	for k := range ops {
		w.n[c]++
		i := w.n[c]
		addr := memsys.Addr(0x100000*uint64(c+1) + i%512*64)
		if i%17 == 0 {
			addr = memsys.Addr(0x800000 + i%64*64)
		}
		ops[k] = Op{Compute: int(i % 4), Addr: addr, Write: i%5 == 0}
	}
}

func (w *benchWorkload) Name() string { return "bench-synthetic" }

// nextOnly hides a workload's Fill, so a system built on it refills
// its op buffers through the Next adapter.
type nextOnly struct{ Workload }

func (s *System) maxCycle() memsys.Cycle {
	var m memsys.Cycle
	for _, cs := range s.cores {
		if cs.cycles > m {
			m = cs.cycles
		}
	}
	return m
}

// simStepOp is BenchmarkSimStep's loop body: the i-th call steps core
// i mod 4, round-robin.
func simStepOp(s *System) func(i int) {
	return func(i int) { s.step(s.cores[i%topo.NumCores]) }
}

// runQuantumOp is BenchmarkRunQuantum's loop body: one complete
// measurement quantum.
func runQuantumOp(s *System) func(i int) {
	return func(int) {
		s.Warmup(0) // resets quantum baselines; executes no steps
		s.Run(200)
	}
}

// warmOp builds the bench system on w, warms it for 10,000
// instructions per core and returns it with op's loop body bound to
// it. The benchmarks time that body and the allocation tests below
// count it, so both measure the same loop.
func warmOp(w Workload, op func(*System) func(int)) (*System, func(int)) {
	s := New(DefaultConfig(), core.New(core.DefaultConfig()), w)
	s.Warmup(10_000)
	return s, op(s)
}

// runSimBench times op and reports its simulated-cycle throughput.
func runSimBench(b *testing.B, op func(*System) func(int)) {
	s, f := warmOp(&benchWorkload{}, op)
	b.ReportAllocs()
	b.ResetTimer()
	start := s.maxCycle()
	for i := 0; i < b.N; i++ {
		f(i)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(s.maxCycle().Sub(start))/secs, "simcycles/sec")
	}
}

// BenchmarkSimStep is the per-cycle microbenchmark: one scheduler step
// per iteration, round-robin across cores, over the CMP-NuRAPID design
// (the deepest per-access path: private tags, d-groups, MESIC, bus).
// TestStepDoesNotAllocate holds its loop body at zero allocations;
// sim-cycles/sec is its throughput metric.
func BenchmarkSimStep(b *testing.B) { runSimBench(b, simStepOp) }

// BenchmarkRunQuantum measures the full scheduler loop end to end —
// runUntil over CMP-NuRAPID with the synthetic bench workload, one
// complete measurement quantum per iteration — so scheduler overhead
// is captured in context, not just in isolation.
// TestRunQuantumAllocs pins its allocations.
func BenchmarkRunQuantum(b *testing.B) { runSimBench(b, runQuantumOp) }

// perRun counts the heap allocations and bytes of the i-th call of f,
// averaged over runs calls after one warm-up call, the way
// testing.AllocsPerRun counts allocations (GOMAXPROCS 1, truncated
// mean) and a benchmark reports B/op.
func perRun(runs int, f func(int)) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= runs; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs),
		(after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestStepDoesNotAllocate holds the per-cycle path to zero heap
// allocations — the property the hotpath lint enforces statically,
// checked here dynamically — on both refill paths: the workload's own
// Fill, as BenchmarkSimStep runs it, and the Next adapter. A
// regression to either gate (a construct the lint misses, or an
// audited marker hiding a per-cycle cost) shows up as a nonzero
// average.
func TestStepDoesNotAllocate(t *testing.T) {
	for name, w := range map[string]Workload{
		"fill":         &benchWorkload{},
		"next-adapter": nextOnly{&benchWorkload{}},
	} {
		_, f := warmOp(w, simStepOp)
		if allocs, bytes := perRun(20_000, f); allocs != 0 || bytes != 0 {
			t.Errorf("%s: step allocates %d times (%d B) per call, want 0", name, allocs, bytes)
		}
	}
}

// TestRunQuantumAllocs pins a measurement quantum's allocations: the
// quantum's steps allocate nothing, and results appends the four
// 64-byte CoreResults one at a time, growing Results.Cores through
// capacities 1, 2 and 4 (3 allocations, 448 bytes). Any other count is
// a change to the allocation profile, an improvement included; update
// the pin in the commit that explains it.
func TestRunQuantumAllocs(t *testing.T) {
	_, f := warmOp(&benchWorkload{}, runQuantumOp)
	if allocs, bytes := perRun(500, f); allocs != 3 || bytes != 448 {
		t.Fatalf("a quantum allocates %d times (%d B), want 3 (448 B)", allocs, bytes)
	}
}

// TestL1LineSize pins an L1 line at 16 bytes on 64-bit hosts: the
// cache.Line header with the dirty bit packed into its padding.
func TestL1LineSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit hosts")
	}
	if got := unsafe.Sizeof(cache.Line[l1Line]{}); got != 16 {
		t.Errorf("L1 line is %d B, want 16", got)
	}
}
