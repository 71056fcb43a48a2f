package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/experiments"
	"cmpnurapid/internal/topo"
	"cmpnurapid/internal/workload"
)

// benchWorkload is one named set of simulation cells, the scale they
// run at, and how many run at once. README.md says why each exists.
type benchWorkload struct {
	name    string
	workers int
	rc      func(seed uint64) experiments.RunConfig
	cells   func(rc experiments.RunConfig) ([]cellSpec, error)
}

// fiveDesigns are the paper's five L2 organisations: Figure 10's
// designs plus the uniform-shared baseline.
var fiveDesigns = []experiments.DesignName{
	experiments.UniformShared, experiments.NonUniform, experiments.Private,
	experiments.Ideal, experiments.NuRAPID,
}

func benchWorkloads() []benchWorkload {
	return []benchWorkload{
		{
			name:    "mt-commercial",
			workers: 1,
			rc: func(seed uint64) experiments.RunConfig {
				return experiments.RunConfig{WarmupInstr: 2_000_000, Instructions: 250_000, Seed: seed}
			},
			cells: func(rc experiments.RunConfig) ([]cellSpec, error) {
				var specs []cellSpec
				for _, p := range workload.Commercial(rc.Seed) {
					for _, d := range fiveDesigns {
						specs = append(specs, mtSpec(d, p))
					}
				}
				return specs, nil
			},
		},
		{
			name:    "mp-fig12",
			workers: 1,
			rc: func(seed uint64) experiments.RunConfig {
				return experiments.RunConfig{WarmupInstr: 400_000, Instructions: 100_000, Seed: seed}
			},
			cells: func(rc experiments.RunConfig) ([]cellSpec, error) {
				var specs []cellSpec
				for i, m := range workload.Mixes(rc.Seed) {
					for _, d := range fiveDesigns {
						specs = append(specs, mpSpec(d, i, m.Name()))
					}
				}
				return specs, nil
			},
		},
		{
			name:    "sweep-quick",
			workers: experiments.DefaultParallelism(),
			rc: func(seed uint64) experiments.RunConfig {
				rc := experiments.QuickRunConfig()
				rc.Seed = seed
				return rc
			},
			cells: planCells,
		},
	}
}

func findWorkload(name string) (benchWorkload, error) {
	var names []string
	for _, w := range benchWorkloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q; valid: %s", name, strings.Join(names, ", "))
}

// cellSpec is one (design, workload) simulation, keyed exactly as
// experiments.Eval keys its cache.
type cellSpec struct {
	key     string
	design  experiments.DesignName
	profile workload.Profile // multithreaded cells
	mix     int              // index into workload.Mixes; -1 for multithreaded cells
}

func mtSpec(d experiments.DesignName, p workload.Profile) cellSpec {
	return cellSpec{key: "mt/" + string(d) + "/" + p.Name, design: d, profile: p, mix: -1}
}

func mpSpec(d experiments.DesignName, i int, mixName string) cellSpec {
	return cellSpec{key: "mp/" + string(d) + "/" + mixName, design: d, mix: i}
}

// planCells is the cell set `cmd/experiments -exp all` executes:
// experiments.Plan over Select("all"), each planned key turned back
// into a cell spec so the benchmark can time the cell's phases itself.
func planCells(rc experiments.RunConfig) ([]cellSpec, error) {
	sel, err := experiments.Select("all")
	if err != nil {
		return nil, err
	}
	e := experiments.NewEval(rc)
	var specs []cellSpec
	for _, c := range experiments.Plan(sel, e) {
		s, err := parseKey(e, c.Key)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// parseKey inverts the Eval cache keys "mt/<design>/<profile>" and
// "mp/<design>/<mix>".
func parseKey(e *experiments.Eval, key string) (cellSpec, error) {
	parts := strings.SplitN(key, "/", 3)
	if len(parts) != 3 {
		return cellSpec{}, fmt.Errorf("cell key %q: want kind/design/workload", key)
	}
	d := experiments.DesignName(parts[1])
	switch parts[0] {
	case "mt":
		for _, p := range e.Profiles() {
			if p.Name == parts[2] {
				return mtSpec(d, p), nil
			}
		}
	case "mp":
		for i, m := range e.Mixes() {
			if m.Name() == parts[2] {
				return mpSpec(d, i, m.Name()), nil
			}
		}
	}
	return cellSpec{}, fmt.Errorf("cell key %q: unknown kind or workload", key)
}

// eval reads the cell's results through experiments.Eval, the path the
// paper's figures take; the reference fingerprints come from here.
func (s cellSpec) eval(e *experiments.Eval) cmpsim.Results {
	if s.mix < 0 {
		return e.MT(s.design, s.profile)
	}
	return e.MP(s.design, s.mix)
}

// cellRecord is what one timed cell leaves behind. The phase spans are
// contiguous: total = newWorkload + newDesign + newSystem + warmup + measure.
type cellRecord struct {
	ok        bool
	results   cmpsim.Results
	siminstr  uint64
	total     time.Duration
	setup     time.Duration // cell start to the start of Warmup
	newWL     time.Duration
	newDesign time.Duration
	newSystem time.Duration
	warmup    time.Duration
	measure   time.Duration
	trace     *cellTrace // nil in untraced rounds
}

// runCell builds and simulates one cell from the public constructors,
// in the order experiments.Run / RunProfile / Eval.MP build it, timing
// each phase. With traced set, the workload and the L2 are wrapped so
// every call into them is counted and a sample of calls is timed.
func runCell(s cellSpec, rc experiments.RunConfig, traced bool) cellRecord {
	var rec cellRecord
	t0 := time.Now() // synccheck:nondet host timing for the benchmark report; never reaches results
	var w cmpsim.Workload
	if s.mix < 0 {
		p := s.profile
		p.Seed = rc.Seed
		w = workload.New(p)
	} else {
		w = workload.Mixes(rc.Seed)[s.mix]
	}
	t1 := time.Now() // synccheck:nondet host timing for the benchmark report; never reaches results
	design := experiments.NewDesign(s.design)
	t2 := time.Now() // synccheck:nondet host timing for the benchmark report; never reaches results
	if traced {
		rec.trace = newCellTrace(s.design)
		w = rec.trace.wrapWorkload(w)
		var err error
		if design, err = rec.trace.wrapL2(design); err != nil {
			panic(fmt.Sprintf("perfbench: %s: %v", s.key, err))
		}
	}
	cfg := cmpsim.DefaultConfig()
	cfg.MaxCycles = rc.MaxCycles
	sys := cmpsim.New(cfg, design, w)
	t3 := time.Now() // synccheck:nondet host timing for the benchmark report; never reaches results
	sys.Warmup(rc.WarmupInstr)
	t4 := time.Now() // synccheck:nondet host timing for the benchmark report; never reaches results
	r := sys.Run(rc.Instructions)
	t5 := time.Now() // synccheck:nondet host timing for the benchmark report; never reaches results

	rec.ok = true
	rec.results = r
	rec.siminstr = uint64(topo.NumCores*rc.WarmupInstr) + r.Instructions
	rec.newWL, rec.newDesign, rec.newSystem = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	rec.setup, rec.warmup, rec.measure, rec.total = t3.Sub(t0), t4.Sub(t3), t5.Sub(t4), t5.Sub(t0)
	return rec
}

// round is one timed pass over a workload's cells.
type round struct {
	traced   bool
	workers  int
	wall     time.Duration
	cpu      time.Duration
	cells    []cellRecord
	failures []experiments.CellFailure
}

// runRound schedules every cell through experiments.ExecuteCells, the
// pool cmd/experiments uses, and times the whole pass.
func runRound(specs []cellSpec, rc experiments.RunConfig, workers int, traced bool) round {
	recs := make([]cellRecord, len(specs))
	cells := make([]experiments.Cell, len(specs))
	for i, s := range specs {
		i, s := i, s
		cells[i] = experiments.Cell{Key: s.key, Run: func() { recs[i] = runCell(s, rc, traced) }}
	}
	runtime.GC() // start every round from the same heap state
	cpu0 := cpuTime()
	start := time.Now()
	failures := experiments.ExecuteCells(cells, workers, false, nil)
	wall := time.Since(start)
	return round{
		traced: traced, workers: workers, wall: wall, cpu: cpuTime() - cpu0,
		cells: recs, failures: failures,
	}
}

// referenceFingerprints simulates every cell through experiments.Eval
// on all CPUs, outside any timed round, and fingerprints the results.
// Cells that fail have no entry.
func referenceFingerprints(specs []cellSpec, rc experiments.RunConfig) map[string]string {
	e := experiments.NewEval(rc)
	cells := make([]experiments.Cell, len(specs))
	for i, s := range specs {
		s := s
		cells[i] = experiments.Cell{Key: s.key, Run: func() { s.eval(e) }}
	}
	failed := map[string]bool{}
	for _, f := range experiments.ExecuteCells(cells, runtime.GOMAXPROCS(0), false, nil) {
		failed[f.Key] = true
	}
	fps := map[string]string{}
	for _, s := range specs {
		if !failed[s.key] {
			fps[s.key] = fingerprint(s.eval(e))
		}
	}
	return fps
}
