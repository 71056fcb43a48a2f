package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"cmpnurapid/internal/stats"
)

// This file is the deterministic parallel experiment scheduler. The
// evaluation is dozens of fully independent, seed-deterministic
// (design, workload) simulations, so instead of running each one the
// moment a figure first asks for it, every experiment *declares* the
// cells it needs, a planner deduplicates them (figures 8/9/10 share
// runs), and a bounded worker pool fills the Eval cache concurrently.
// Figures then render from the completed cache in the registry's fixed
// order, so the output is byte-identical to a sequential run: each
// cell draws only from its own seeded workload split (DESIGN.md
// decision 4), which makes execution order unobservable in the
// results. See docs/PARALLEL.md.

// Cell is one independent, seed-deterministic simulation the scheduler
// can run. Running a cell fills the evaluation's cache entry under Key;
// running it again (or concurrently) is a no-op thanks to the cache's
// write-once semantics.
type Cell struct {
	Key string
	Run func()
}

// Experiment is one entry point of the evaluation: a table, figure,
// ablation, or sensitivity sweep. Cells declares the simulations it
// needs (nil for pure tables); exactly one of Table or Text renders it
// from the warm cache.
type Experiment struct {
	Name  string
	InAll bool // regenerated by "-exp all"; ablations/sensitivity are opt-in
	Cells func(e *Eval) []Cell
	Table func(e *Eval) *stats.Table
	Text  func(e *Eval) string // used when Table is nil (summary)
}

// Experiments returns the registry in rendering order: tables, then
// the opt-in ablations and sensitivity sweeps, then the figures and
// summary (the order cmd/experiments has always printed them in).
func Experiments() []Experiment {
	return []Experiment{
		{Name: "table1", InAll: true, Table: func(e *Eval) *stats.Table { return Table1() }},
		{Name: "table2", InAll: true, Table: func(e *Eval) *stats.Table { return Table2() }},
		{Name: "table3", InAll: true, Table: func(e *Eval) *stats.Table { return Table3(e.RC.Seed) }},
		{Name: "abl-promotion", Cells: ablPromotion.cells, Table: ablPromotion.render},
		{Name: "abl-tags", Cells: ablTags.cells, Table: ablTags.render},
		{Name: "abl-replication", Cells: ablReplication.cells, Table: ablReplication.render},
		{Name: "abl-optimizations", Cells: ablOptimizations.cells, Table: ablOptimizations.render},
		{Name: "abl-cmigration", Cells: ablCMigration.cells, Table: ablCMigration.render},
		{Name: "abl-update", Cells: ablUpdate.cells, Table: ablUpdate.render},
		{Name: "abl-dnuca", Cells: ablDNUCA.cells, Table: ablDNUCA.render},
		{Name: "bandwidth", Cells: (*Eval).bandwidthCells, Table: (*Eval).BandwidthReport},
		{Name: "capacity",
			Cells: func(e *Eval) []Cell { return []Cell{e.capacityCell(capacityMixIdx)} },
			Table: func(e *Eval) *stats.Table { return e.CapacityReport(capacityMixIdx) }},
		{Name: "sens-size",
			Cells: func(e *Eval) []Cell { return e.sizeSensitivityCells(sizeSweepMB) },
			Table: func(e *Eval) *stats.Table { return e.SizeSensitivity(sizeSweepMB) }},
		{Name: "sens-seed",
			Cells: func(e *Eval) []Cell { return e.seedSensitivityCells(e.seedSweep()) },
			Table: func(e *Eval) *stats.Table { return e.SeedSensitivity(e.seedSweep()) }},
		{Name: "fig5", InAll: true, Cells: designCells(profileRows, figure5Designs...), Table: (*Eval).Figure5},
		{Name: "fig6", InAll: true, Cells: figure6.cells, Table: figure6.render},
		{Name: "fig7", InAll: true, Cells: designCells(profileRows, Private), Table: (*Eval).Figure7},
		{Name: "fig8", InAll: true, Cells: designCells(profileRows, figure8Designs...), Table: (*Eval).Figure8},
		{Name: "fig9", InAll: true, Cells: designCells(profileRows, figure9Designs...), Table: (*Eval).Figure9},
		{Name: "fig10", InAll: true, Cells: figure10.cells, Table: figure10.render},
		{Name: "fig11", InAll: true, Cells: designCells(mixRows, figure11Designs...), Table: (*Eval).Figure11},
		{Name: "fig12", InAll: true, Cells: figure12.cells, Table: figure12.render},
		{Name: "summary", InAll: true, Cells: designCells(commercialRows, summaryDesigns...), Text: (*Eval).Summary},
	}
}

// ExperimentNames returns every registered experiment name in
// rendering order ("all" is a selection keyword, not an experiment).
func ExperimentNames() []string {
	exps := Experiments()
	names := make([]string, len(exps))
	for i, ex := range exps {
		names[i] = ex.Name
	}
	return names
}

// Select resolves a comma-separated -exp selection against the
// registry. "all" expands to every InAll experiment and may be
// combined with opt-in names ("all,abl-promotion"). Unknown names or
// an empty selection return an error that lists the valid names, so
// a typo like "fig13" can never silently produce no output.
func Select(spec string) ([]Experiment, error) {
	want := map[string]bool{}
	for _, tok := range strings.Split(spec, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			want[tok] = true
		}
	}
	valid := "all, " + strings.Join(ExperimentNames(), ", ")
	if len(want) == 0 {
		return nil, fmt.Errorf("no experiments selected; valid names: %s", valid)
	}
	all := want["all"]
	delete(want, "all")

	known := map[string]bool{}
	for _, name := range ExperimentNames() {
		known[name] = true
	}
	var unknown []string
	for name := range want {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment(s): %s; valid names: %s",
			strings.Join(unknown, ", "), valid)
	}

	var sel []Experiment
	for _, ex := range Experiments() {
		if (all && ex.InAll) || want[ex.Name] {
			sel = append(sel, ex)
		}
	}
	return sel, nil
}

// Plan enumerates every cell the selected experiments need,
// deduplicated by key in first-declared order. The plan is the unit
// the worker pool executes; rendering afterwards touches only cache
// entries the plan filled.
func Plan(exps []Experiment, e *Eval) []Cell {
	seen := map[string]bool{}
	var cells []Cell
	for _, ex := range exps {
		if ex.Cells == nil {
			continue
		}
		for _, c := range ex.Cells(e) {
			if seen[c.Key] {
				continue
			}
			seen[c.Key] = true
			cells = append(cells, c)
		}
	}
	return cells
}

// DefaultParallelism is the worker-pool default: one simulation per
// available CPU.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// Progress is called as each cell completes, on ExecuteCells's
// calling goroutine.
type Progress func(done, total int, key string, elapsed time.Duration)

// ExecuteCells runs the planned cells in-process on a bounded pool of
// workers (values below 1 are treated as 1, i.e. sequential). It
// returns when every dispatched cell has completed. Which worker runs
// which cell — and in what order — cannot affect any result: cells
// share no mutable state except the write-once Eval cache, and each
// simulates from its own seeded workload split.
//
// The calling goroutine owns all run state. It hands plan indices to
// the workers over an unbuffered channel, so a cell is dispatched only
// at the moment a worker takes it, and it alone reads completions,
// counts them, calls progress and records failures by plan position.
//
// A failing cell does not take down the run: CapturePanic converts its
// panic into a CellFailure, its cache entry stays poisoned, and the
// remaining cells keep executing. The returned failures are in plan
// order, so the failure report is deterministic regardless of worker
// interleaving. With failFast set, the first failure stops dispatch:
// cells never handed out never start (or count), and only cells
// already in flight still finish — the abort-on-first-failure
// behaviour behind the CLI's -failfast flag.
func ExecuteCells(cells []Cell, workers int, failFast bool, progress Progress) []CellFailure {
	type completion struct {
		i       int
		failure *CellFailure
		elapsed time.Duration
	}
	jobs := make(chan int)
	done := make(chan completion)
	for w := min(max(workers, 1), len(cells)); w > 0; w-- {
		go func() {
			for i := range jobs {
				start := time.Now()
				f := CapturePanic(cells[i].Key, cells[i].Run)
				done <- completion{i, f, time.Since(start)}
			}
		}()
	}
	failed := make([]*CellFailure, len(cells))
	next, inFlight, finished := 0, 0, 0
	for next < len(cells) || inFlight > 0 {
		var dispatch chan<- int // stays nil, so never ready, once dispatch ends
		if next < len(cells) {
			dispatch = jobs
		}
		select {
		case dispatch <- next:
			next++
			inFlight++
		case c := <-done:
			inFlight--
			finished++
			failed[c.i] = c.failure
			if failFast && c.failure != nil {
				next = len(cells) // stop dispatch; cells in flight still finish
			}
			if progress != nil {
				progress(finished, len(cells), cells[c.i].Key, c.elapsed)
			}
		}
	}
	close(jobs)
	var failures []CellFailure
	for _, f := range failed {
		if f != nil {
			failures = append(failures, *f)
		}
	}
	return failures
}
