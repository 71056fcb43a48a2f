package experiments

import (
	"fmt"

	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/stats"
	"cmpnurapid/internal/topo"
	"cmpnurapid/internal/workload"
)

// This file extends the evaluation with sensitivity studies the paper
// motivates but does not run: total L2 capacity (the latency–capacity
// tradeoff CMP-NuRAPID navigates shifts with cache size) and workload
// seed (the paper injects random perturbations and reruns, §4.3).

// sized is design d at an alternative total capacity, built by d's
// one constructor at latencies re-derived from the timing model at
// that geometry. At the paper's 8 MB it is the design itself, so that
// point shares the figures' simulation.
func sized(d DesignName, totalMB int) config {
	total := memsys.MB(totalMB)
	if total == topo.TotalL2Bytes {
		return design(d)
	}
	return config{fmt.Sprintf("%s[size=%dMB]", d, totalMB), func() memsys.L2 {
		return newDesign(d, topo.DeriveWith(total/topo.NumDGroups))
	}}
}

// sizeSweepMB is the capacity sweep the "sens-size" experiment runs.
var sizeSweepMB = []int{4, 8, 16}

// sizePoint is one capacity point of the sweep: private and
// CMP-NuRAPID against the same-size uniform-shared cache.
func sizePoint(totalMB int) speedupTable {
	return speedupTable{
		base: sized(UniformShared, totalMB),
		cols: []config{sized(Private, totalMB), sized(NuRAPID, totalMB)},
	}
}

func (e *Eval) sizeSensitivityCells(totalsMB []int) []Cell {
	oltp := []input{e.mtInput(workload.OLTP(e.RC.Seed))}
	var cells []Cell
	for _, mb := range totalsMB {
		cells = append(cells, e.cells(oltp, sizePoint(mb).configs()...)...)
	}
	return cells
}

// SizeSensitivity sweeps the total L2 capacity on one commercial
// workload and reports each design's speedup over the same-size
// uniform-shared cache. Smaller caches raise capacity pressure (CR's
// territory); larger ones leave latency as the only differentiator.
func (e *Eval) SizeSensitivity(totalsMB []int) *stats.Table {
	t := stats.NewTable("Sensitivity: total L2 capacity (speedup vs same-size uniform-shared, OLTP)",
		"Total L2", string(Private), string(NuRAPID))
	oltp := e.mtInput(workload.OLTP(e.RC.Seed))
	for _, mb := range totalsMB {
		row := []string{fmt.Sprintf("%d MB", mb)}
		for _, sp := range sizePoint(mb).speedups(e, oltp) {
			row = append(row, stats.Rel(sp))
		}
		t.Row(row...)
	}
	return t
}

// seedSweep is the seed series the "sens-seed" experiment reruns the
// headline comparison over: the configured seed and its two
// successors (matching the historical cmd/experiments default).
func (e *Eval) seedSweep() []uint64 {
	return []uint64{e.RC.Seed, e.RC.Seed + 1, e.RC.Seed + 2}
}

// subEval returns a child evaluation at the same scale but a different
// seed, memoized so cells and rendering share one instance (and one
// run cache). For the evaluation's own seed it returns e itself, so a
// combined "-exp all,sens-seed" reuses the figures' runs.
func (e *Eval) subEval(seed uint64) *Eval {
	if seed == e.RC.Seed {
		return e
	}
	return e.memo(fmt.Sprintf("eval/seed/%d", seed), func() any {
		rcs := e.RC
		rcs.Seed = seed
		return NewEval(rcs)
	}).(*Eval)
}

func (e *Eval) seedSensitivityCells(seeds []uint64) []Cell {
	var cells []Cell
	for _, seed := range seeds {
		sub := e.subEval(seed)
		subCells := sub.cells(sub.inputs(commercialRows), designs(UniformShared, Private, NuRAPID, Ideal)...)
		if sub != e {
			// Namespace another seed's cells: the same (config,
			// workload) pair at two seeds is two distinct simulations,
			// and the planner deduplicates by key.
			for i := range subCells {
				subCells[i].Key = fmt.Sprintf("seed/%d/%s", seed, subCells[i].Key)
			}
		}
		cells = append(cells, subCells...)
	}
	return cells
}

// SeedSensitivity reruns the Figure 10 headline comparison across
// seeds and reports each design's commercial-average speedup per seed;
// the orderings must be stable for the reproduction's claims to mean
// anything (the paper likewise accounts for multithreaded variability
// by rerunning with perturbations, §4.3).
func (e *Eval) SeedSensitivity(seeds []uint64) *stats.Table {
	t := stats.NewTable("Sensitivity: workload seed (commercial-avg speedup vs uniform-shared)",
		"Seed", "private", "CMP-NuRAPID", "ideal")
	for _, seed := range seeds {
		sub := e.subEval(seed)
		t.Row(fmt.Sprint(seed),
			stats.Rel(sub.Speedup(Private)),
			stats.Rel(sub.Speedup(NuRAPID)),
			stats.Rel(sub.Speedup(Ideal)))
	}
	return t
}
