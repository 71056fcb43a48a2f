package cmpsim

import (
	"testing"

	"cmpnurapid/internal/core"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
)

// benchWorkload is an allocation-free deterministic stream: each core
// walks a private 32 KB window with periodic stores and periodic
// references into a shared region (so replication, coherence and the
// bus all stay exercised). State is four counters — Next never
// allocates, keeping the benchmark a measurement of the simulator's
// per-cycle path alone.
type benchWorkload struct {
	n [topo.NumCores]uint64
}

func (w *benchWorkload) Next(c int) Op {
	w.n[c]++
	i := w.n[c]
	addr := memsys.Addr(0x100000*uint64(c+1) + i%512*64)
	if i%17 == 0 {
		addr = memsys.Addr(0x800000 + i%64*64)
	}
	return Op{Compute: int(i % 4), Addr: addr, Write: i%5 == 0}
}

func (w *benchWorkload) Name() string { return "bench-synthetic" }

func benchSystem() *System {
	return New(DefaultConfig(), core.New(core.DefaultConfig()), &benchWorkload{})
}

func (s *System) maxCycle() memsys.Cycle {
	var m memsys.Cycle
	for _, cs := range s.cores {
		if cs.cycles > m {
			m = cs.cycles
		}
	}
	return m
}

// BenchmarkSimStep is the per-cycle microbenchmark behind
// BENCH_quick.json: one scheduler step per iteration, round-robin
// across cores, over the CMP-NuRAPID design (the deepest per-access
// path: private tags, d-groups, MESIC, bus). The committed trajectory
// holds its allocs/op at zero; sim-cycles/sec is its throughput metric.
func BenchmarkSimStep(b *testing.B) {
	s := benchSystem()
	s.Warmup(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	start := s.maxCycle()
	for i := 0; i < b.N; i++ {
		s.step(i % s.cfg.Cores)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(s.maxCycle().Sub(start))/secs, "simcycles/sec")
	}
}

// BenchmarkRunQuantum measures the full scheduler loop end to end —
// runUntil over CMP-NuRAPID with the synthetic bench workload, one
// complete measurement quantum per iteration — so scheduler overhead
// is captured in context, not just in isolation.
func BenchmarkRunQuantum(b *testing.B) {
	s := benchSystem()
	s.Warmup(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	start := s.maxCycle()
	for i := 0; i < b.N; i++ {
		s.Warmup(0) // resets quantum baselines; executes no steps
		s.Run(200)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(s.maxCycle().Sub(start))/secs, "simcycles/sec")
	}
}

// TestStepDoesNotAllocate holds the per-cycle path to zero heap
// allocations — the property the hotpath lint enforces statically,
// checked here dynamically. A regression to either gate (a construct
// the lint misses, or an audited marker hiding a per-cycle cost) shows
// up as a nonzero average.
func TestStepDoesNotAllocate(t *testing.T) {
	s := benchSystem()
	s.Warmup(10_000)
	next := 0
	avg := testing.AllocsPerRun(20_000, func() {
		s.step(next)
		next = (next + 1) % s.cfg.Cores
	})
	if avg != 0 {
		t.Fatalf("step allocates %.4f times per call, want 0", avg)
	}
}
