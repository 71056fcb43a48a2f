package experiments

import (
	"fmt"
	"sync"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/core"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/stats"
	"cmpnurapid/internal/workload"
)

// Eval runs and caches (config, workload) simulations so the figures
// and ablations that share runs (5/6, 8/9/10, 11/12, and every
// default-config ablation column) reuse them. The cache is write-once
// and safe for concurrent use: when the scheduler (scheduler.go)
// executes an evaluation's cells on a worker pool, a cell requested by
// several figures is simulated exactly once, and figures rendered
// afterwards read the completed entries without running anything.
// Sequential use (call a FigureN method directly) still works: a
// missing entry is filled on demand.
type Eval struct {
	// RC, profiles and mixes are fixed by NewEval.
	RC       RunConfig
	profiles []workload.Profile
	mixes    []*workload.Multiprogrammed

	cache sync.Map // string key -> *cacheEntry; entries are only added
}

// cacheEntry is one memoized simulation (or derived value). It is
// filled under its own once, so concurrent requesters of *different*
// keys never wait on each other while a simulation runs. A fill that
// panics poisons the entry (pv/stack) instead of completing it: every
// later read re-panics with the original value, so a failed cell fails
// identically no matter which figure reads it or in what order.
type cacheEntry struct {
	once  sync.Once
	val   any
	pv    any    // the fill's panic value, when it failed
	stack string // the fill's stack at panic time
}

// NewEval builds an evaluation context at the given scale.
func NewEval(rc RunConfig) *Eval {
	return &Eval{
		RC:       rc,
		profiles: workload.Multithreaded(rc.Seed),
		mixes:    workload.Mixes(rc.Seed),
	}
}

// memo returns the value cached under key, computing it at most once
// even when called concurrently (every caller blocks until the single
// fill completes). Each fill draws only from its own seeded workload
// split, so the value is independent of which goroutine fills it.
func (e *Eval) memo(key string, fill func() any) any {
	v, ok := e.cache.Load(key)
	if !ok {
		v, _ = e.cache.LoadOrStore(key, &cacheEntry{})
	}
	ent := v.(*cacheEntry)
	ent.once.Do(func() {
		if f := CapturePanic(key, func() { ent.val = fill() }); f != nil {
			ent.pv, ent.stack = f.Value, f.Stack
		}
	})
	if ent.pv != nil {
		panic(cellPanic{value: ent.pv, stack: ent.stack})
	}
	return ent.val
}

// config is one simulated machine: an L2 design, or CMP-NuRAPID with
// its default config mutated. Its name is the middle segment of every
// memo key it fills, so a column that is an existing design names that
// design and shares its simulation.
type config struct {
	name string
	l2   func() memsys.L2
}

func design(d DesignName) config {
	return config{string(d), func() memsys.L2 { return NewDesign(d) }}
}

func designs(ds ...DesignName) []config {
	cfgs := make([]config, len(ds))
	for i, d := range ds {
		cfgs[i] = design(d)
	}
	return cfgs
}

// nurapidVariant is CMP-NuRAPID with mut applied to its default config;
// label names the mutation in the key ("CMP-NuRAPID[tags=1x]").
func nurapidVariant(label string, mut func(*core.Config)) config {
	return config{string(NuRAPID) + "[" + label + "]", func() memsys.L2 {
		cfg := core.DefaultConfig()
		mut(&cfg)
		return core.New(cfg)
	}}
}

// input is one workload a config runs: a multithreaded profile ("mt")
// or a Table 2 mix ("mp"). new builds a fresh generator per fill, so
// every config sees an identical reference stream.
type input struct {
	kind, name string
	new        func() cmpsim.Workload
}

func (e *Eval) mtInput(p workload.Profile) input {
	p.Seed = e.RC.Seed
	return input{"mt", p.Name, func() cmpsim.Workload { return workload.New(p) }}
}

func (e *Eval) mpInput(mixIdx int) input {
	return input{"mp", e.mixes[mixIdx].Name(), func() cmpsim.Workload {
		return workload.Mixes(e.RC.Seed)[mixIdx]
	}}
}

// rowSet names the inputs a table runs over.
type rowSet int

const (
	profileRows    rowSet = iota // all multithreaded workloads, Figure 5 order
	commercialRows               // the three commercial workloads
	mixRows                      // the Table 2 mixes
)

func (e *Eval) inputs(rs rowSet) []input {
	var ins []input
	switch rs {
	case mixRows:
		for i := range e.mixes {
			ins = append(ins, e.mpInput(i))
		}
	case commercialRows:
		for _, p := range e.commercial() {
			ins = append(ins, e.mtInput(p))
		}
	default:
		for _, p := range e.profiles {
			ins = append(ins, e.mtInput(p))
		}
	}
	return ins
}

// cellKey is the memo key of (c, in), and the key of the cell that
// fills it.
func cellKey(c config, in input) string { return in.kind + "/" + c.name + "/" + in.name }

// result returns the cached simulation of config c on input in.
func (e *Eval) result(c config, in input) cmpsim.Results {
	return e.memo(cellKey(c, in), func() any {
		w := in.new()
		return simulate(c.l2(), w, e.RC)
	}).(cmpsim.Results)
}

// cells declares one cell per (input, config) pair, input-major.
func (e *Eval) cells(ins []input, cfgs ...config) []Cell {
	var cells []Cell
	for _, in := range ins {
		for _, c := range cfgs {
			cells = append(cells, Cell{Key: cellKey(c, in), Run: func() { e.result(c, in) }})
		}
	}
	return cells
}

// designCells is the Cells function of an experiment that reads the
// given designs over rs.
func designCells(rs rowSet, ds ...DesignName) func(*Eval) []Cell {
	return func(e *Eval) []Cell { return e.cells(e.inputs(rs), designs(ds...)...) }
}

// Profiles returns the multithreaded workloads in Figure 5 order.
func (e *Eval) Profiles() []workload.Profile { return e.profiles }

// Mixes returns the Table 2 workloads.
func (e *Eval) Mixes() []*workload.Multiprogrammed { return e.mixes }

// commercial returns the three commercial workloads the headline
// numbers average over (the first three of the Figure 5 order).
func (e *Eval) commercial() []workload.Profile { return e.profiles[:3] }

// MT returns the cached result for (design, multithreaded workload).
func (e *Eval) MT(d DesignName, p workload.Profile) cmpsim.Results {
	return e.result(design(d), e.mtInput(p))
}

// MP returns the cached result for (design, mix).
func (e *Eval) MP(d DesignName, mixIdx int) cmpsim.Results {
	return e.result(design(d), e.mpInput(mixIdx))
}

// avgRow selects a speedup table's closing average row. The two forms
// are the figures' historical arithmetic, kept so output bytes match.
type avgRow int

const (
	noAvg         avgRow = iota
	commercialAvg        // "commercial-avg": the commercial rows' sum / 3
	mixAvg               // "average": each row's speedup / rows, accumulated
)

// speedupTable is a table whose cells are speedups of each column
// config over a baseline config, one row per input. Its cells and its
// rendering both derive from this one spec, so the plan always covers
// exactly what rendering reads.
type speedupTable struct {
	title string
	heads []string // column headers; nil uses the column configs' names
	rows  rowSet
	base  config
	cols  []config
	avg   avgRow
}

// configs lists the baseline and then the columns, the order each
// row's cells are declared in.
func (s speedupTable) configs() []config { return append([]config{s.base}, s.cols...) }

func (s speedupTable) cells(e *Eval) []Cell { return e.cells(e.inputs(s.rows), s.configs()...) }

// speedups returns each column's speedup over the baseline on in.
func (s speedupTable) speedups(e *Eval, in input) []float64 {
	base := e.result(s.base, in)
	sp := make([]float64, len(s.cols))
	for j, c := range s.cols {
		sp[j] = cmpsim.Speedup(e.result(c, in), base)
	}
	return sp
}

func (s speedupTable) render(e *Eval) *stats.Table {
	header := append([]string{"Workload"}, s.heads...)
	if s.heads == nil {
		for _, c := range s.cols {
			header = append(header, c.name)
		}
	}
	t := stats.NewTable(s.title, header...)
	ins := e.inputs(s.rows)
	avg := make([]float64, len(s.cols))
	for i, in := range ins {
		row := []string{in.name}
		for j, sp := range s.speedups(e, in) {
			row = append(row, stats.Rel(sp))
			switch {
			case s.avg == mixAvg:
				avg[j] += sp / float64(len(ins))
			case s.avg == commercialAvg && i < len(e.commercial()):
				avg[j] += sp
			}
		}
		t.Row(row...)
	}
	switch s.avg {
	case commercialAvg:
		row := []string{"commercial-avg"}
		for _, sum := range avg {
			row = append(row, stats.Rel(sum/3))
		}
		t.Row(row...)
	case mixAvg:
		row := []string{"average"}
		for _, a := range avg {
			row = append(row, stats.Rel(a))
		}
		t.Row(row...)
	}
	return t
}

// Per-figure design series shared by the cell declarations in the
// registry and the distribution renderers below.
var (
	figure5Designs  = []DesignName{UniformShared, Private}
	figure8Designs  = []DesignName{UniformShared, Private, NuRAPIDCR, NuRAPIDISC}
	figure9Designs  = []DesignName{NuRAPIDCR, NuRAPIDISC}
	figure11Designs = []DesignName{UniformShared, Private, NuRAPID}
	summaryDesigns  = []DesignName{UniformShared, Private, NuRAPID}
)

// figure6 is the performance-opportunity figure: non-uniform-shared,
// private, and ideal caches normalized to the uniform-shared cache.
var figure6 = speedupTable{
	title: "Figure 6: Performance Opportunity (relative to uniform-shared)",
	rows:  profileRows, base: design(UniformShared),
	cols: designs(NonUniform, Private, Ideal), avg: commercialAvg,
}

// figure10 is the headline performance figure, adding CMP-NuRAPID to
// Figure 6's designs.
var figure10 = speedupTable{
	title: "Figure 10: Performance (relative to uniform-shared)",
	rows:  profileRows, base: design(UniformShared),
	cols: designs(NonUniform, Private, Ideal, NuRAPID), avg: commercialAvg,
}

// figure12 is the multiprogrammed IPC figure: non-uniform-shared,
// private, and CMP-NuRAPID relative to uniform-shared.
var figure12 = speedupTable{
	title: "Figure 12: Performance, multiprogrammed (IPC relative to uniform-shared)",
	rows:  mixRows, base: design(UniformShared),
	cols: designs(NonUniform, Private, NuRAPID), avg: mixAvg,
}

// commercialAvg averages a metric over the three commercial workloads.
func (e *Eval) commercialAvg(f func(p workload.Profile) float64) float64 {
	sum := 0.0
	for _, p := range e.commercial() {
		sum += f(p)
	}
	return sum / 3
}

// barGlyphs mirrors the paper's stacked-bar legend: hits, ROS misses,
// RWS misses, capacity misses.
var barGlyphs = []rune{'#', 'r', 'w', '.'}

// accessBar renders an access distribution as a Figure 5-style
// stacked bar (#=hits r=ROS w=RWS .=capacity).
func accessBar(s *memsys.L2Stats) string {
	return stats.StackedBar([]float64{
		s.Accesses.Frac(memsys.LabelHit),
		s.Accesses.Frac(memsys.LabelROS),
		s.Accesses.Frac(memsys.LabelRWS),
		s.Accesses.Frac(memsys.LabelCapacity),
	}, 30, barGlyphs)
}

// Figure5 regenerates the distribution of L2 cache accesses for shared
// and private caches across the multithreaded workloads. The last
// column is a stacked bar (#=hits r=ROS w=RWS .=capacity), the
// terminal analogue of the paper's figure.
func (e *Eval) Figure5() *stats.Table {
	t := stats.NewTable("Figure 5: Distribution of Cache Accesses (fraction of L2 accesses)",
		"Workload", "Design", "Hits", "ROS miss", "RWS miss", "Capacity miss", "# hits  r ROS  w RWS  . capacity")
	for _, p := range e.profiles {
		for _, d := range figure5Designs {
			s := e.MT(d, p).L2
			row := append([]string{p.Name, string(d)}, accessRow(s)...)
			row = append(row, accessBar(s))
			t.Row(row...)
		}
	}
	for _, d := range figure5Designs {
		avg := e.avgAccessRow(d)
		t.Row(append([]string{"commercial-avg", string(d)}, avg...)...)
	}
	return t
}

func (e *Eval) avgAccessRow(d DesignName) []string {
	cells := make([]string, 0, 4)
	for _, l := range []string{memsys.LabelHit, memsys.LabelROS, memsys.LabelRWS, memsys.LabelCapacity} {
		cells = append(cells, stats.Pct(e.MissFrac(d, l)))
	}
	return cells
}

// Figure6 regenerates Figure 6 (see figure6).
func (e *Eval) Figure6() *stats.Table { return figure6.render(e) }

// Figure10 regenerates Figure 10 (see figure10).
func (e *Eval) Figure10() *stats.Table { return figure10.render(e) }

// Speedup returns design d's commercial-average speedup over the
// uniform-shared baseline (the paper's headline metric).
func (e *Eval) Speedup(d DesignName) float64 {
	return e.commercialAvg(func(p workload.Profile) float64 {
		return cmpsim.Speedup(e.MT(d, p), e.MT(UniformShared, p))
	})
}

// Figure7 regenerates the block-reuse patterns measured on the private
// caches: replaced ROS-brought blocks and invalidated RWS-brought
// blocks, bucketed by reuse count.
func (e *Eval) Figure7() *stats.Table {
	t := stats.NewTable("Figure 7: Reuse Patterns (private caches; fraction of lifetimes)",
		"Workload", "Kind", "0 reuses", "1 reuse", "2-5 reuses", ">5 reuses")
	for _, p := range e.profiles {
		s := e.MT(Private, p).L2
		ros, rws := s.ReuseROS.Fracs(), s.ReuseRWS.Fracs()
		t.Row(p.Name, "ROS-replaced", stats.Pct(ros[0]), stats.Pct(ros[1]), stats.Pct(ros[2]), stats.Pct(ros[3]))
		t.Row(p.Name, "RWS-invalidated", stats.Pct(rws[0]), stats.Pct(rws[1]), stats.Pct(rws[2]), stats.Pct(rws[3]))
	}
	avgROS, avgRWS := e.ReuseFracs(true), e.ReuseFracs(false)
	t.Row("commercial-avg", "ROS-replaced", stats.Pct(avgROS[0]), stats.Pct(avgROS[1]), stats.Pct(avgROS[2]), stats.Pct(avgROS[3]))
	t.Row("commercial-avg", "RWS-invalidated", stats.Pct(avgRWS[0]), stats.Pct(avgRWS[1]), stats.Pct(avgRWS[2]), stats.Pct(avgRWS[3]))
	return t
}

// ReuseFracs exposes the commercial-average reuse fractions for tests
// and EXPERIMENTS.md (kind: true = ROS, false = RWS).
func (e *Eval) ReuseFracs(ros bool) [4]float64 {
	var avg [4]float64
	for _, p := range e.commercial() {
		s := e.MT(Private, p).L2
		var f [4]float64
		if ros {
			f = s.ReuseROS.Fracs()
		} else {
			f = s.ReuseRWS.Fracs()
		}
		for b := 0; b < 4; b++ {
			avg[b] += f[b] / 3
		}
	}
	return avg
}

// Figure8 regenerates the tag-array access distribution for shared,
// private, CMP-NuRAPID-with-CR, and CMP-NuRAPID-with-ISC.
func (e *Eval) Figure8() *stats.Table {
	t := stats.NewTable("Figure 8: Distribution of Tag Array Accesses",
		"Workload", "Design", "Hits", "ROS miss", "RWS miss", "Capacity miss")
	for _, p := range e.profiles {
		for _, d := range figure8Designs {
			t.Row(append([]string{p.Name, string(d)}, accessRow(e.MT(d, p).L2)...)...)
		}
	}
	for _, d := range figure8Designs {
		t.Row(append([]string{"commercial-avg", string(d)}, e.avgAccessRow(d)...)...)
	}
	return t
}

// MissFrac returns design d's commercial-average fraction of L2
// accesses in the given category.
func (e *Eval) MissFrac(d DesignName, label string) float64 {
	return e.commercialAvg(func(p workload.Profile) float64 {
		return e.MT(d, p).L2.Accesses.Frac(label)
	})
}

// Figure9 regenerates the data-array access distribution (closest
// d-group hits, farther d-group hits, misses) for CR and ISC.
func (e *Eval) Figure9() *stats.Table {
	t := stats.NewTable("Figure 9: Distribution of Data Array Accesses",
		"Workload", "Design", "Closest d-grp", "Farther d-grps", "Misses")
	for _, p := range e.profiles {
		for _, d := range figure9Designs {
			s := e.MT(d, p).L2
			t.Row(p.Name, string(d),
				stats.Pct(s.DataArray.Frac(memsys.LabelClosest)),
				stats.Pct(s.DataArray.Frac(memsys.LabelFarther)),
				stats.Pct(s.DataArray.Frac(memsys.LabelMiss)))
		}
	}
	for _, d := range figure9Designs {
		t.Row("commercial-avg", string(d),
			stats.Pct(e.DataFrac(d, memsys.LabelClosest)),
			stats.Pct(e.DataFrac(d, memsys.LabelFarther)),
			stats.Pct(e.DataFrac(d, memsys.LabelMiss)))
	}
	return t
}

// DataFrac returns design d's commercial-average fraction of
// data-array accesses in the given category.
func (e *Eval) DataFrac(d DesignName, label string) float64 {
	return e.commercialAvg(func(p workload.Profile) float64 {
		return e.MT(d, p).L2.DataArray.Frac(label)
	})
}

// Figure11 regenerates the multiprogrammed access distributions for
// shared, private, and CMP-NuRAPID.
func (e *Eval) Figure11() *stats.Table {
	t := stats.NewTable("Figure 11: Distribution of Cache Accesses (multiprogrammed)",
		"Workload", "Design", "Hits", "Misses")
	avg := map[DesignName]float64{}
	for i, m := range e.mixes {
		for _, d := range figure11Designs {
			s := e.MP(d, i).L2
			t.Row(m.Name(), string(d),
				stats.Pct(s.Accesses.Frac(memsys.LabelHit)), stats.Pct(s.MissRate()))
			avg[d] += s.MissRate() / float64(len(e.mixes))
		}
	}
	for _, d := range figure11Designs {
		t.Row("average", string(d), stats.Pct(1-avg[d]), stats.Pct(avg[d]))
	}
	return t
}

// MixMissRate returns design d's average miss rate over the mixes.
func (e *Eval) MixMissRate(d DesignName) float64 {
	sum := 0.0
	for i := range e.mixes {
		sum += e.MP(d, i).L2.MissRate()
	}
	return sum / float64(len(e.mixes))
}

// Figure12 regenerates Figure 12 (see figure12).
func (e *Eval) Figure12() *stats.Table { return figure12.render(e) }

// MixSpeedup returns design d's average speedup over uniform-shared
// across the mixes.
func (e *Eval) MixSpeedup(d DesignName) float64 {
	sum := 0.0
	for i := range e.mixes {
		sum += cmpsim.Speedup(e.MP(d, i), e.MP(UniformShared, i))
	}
	return sum / float64(len(e.mixes))
}

// ClosestDGroupHitFrac returns, for CMP-NuRAPID on the mixes, the
// fraction of all accesses served by the closest d-group (§5.2.1
// reports 85%, i.e. 93% of hits).
func (e *Eval) ClosestDGroupHitFrac() float64 {
	sum := 0.0
	for i := range e.mixes {
		s := e.MP(NuRAPID, i).L2
		sum += s.DataArray.Frac(memsys.LabelClosest)
	}
	return sum / float64(len(e.mixes))
}

// Summary prints the headline numbers the abstract reports.
func (e *Eval) Summary() string {
	return fmt.Sprintf(
		"CMP-NuRAPID vs uniform-shared (commercial avg): %+.1f%%\n"+
			"CMP-NuRAPID vs private (commercial avg):        %+.1f%%\n",
		(e.Speedup(NuRAPID)-1)*100,
		(e.Speedup(NuRAPID)/e.Speedup(Private)-1)*100)
}
