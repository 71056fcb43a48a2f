package experiments

import (
	"strings"
	"sync"
	"testing"

	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/workload"
)

// The experiment tests run at quick scale and assert the *shape* of the
// paper's results — orderings and direction of effects — rather than
// absolute percentages, which need the full-scale runs (see
// EXPERIMENTS.md for those).

func quickEval(t *testing.T) *Eval {
	t.Helper()
	quickOnce.Do(func() { quickShared = NewEval(QuickRunConfig()) })
	return quickShared
}

// mediumEval is for distribution-shape assertions, which need the
// caches warm enough that cold misses do not swamp the window.
func mediumEval(t *testing.T) *Eval {
	t.Helper()
	if testing.Short() {
		t.Skip("medium-scale evaluation skipped in -short mode")
	}
	return medium.get(t)
}

var (
	quickOnce   sync.Once
	quickShared *Eval
	// medium holds the cells mediumEval's tests read: OLTP on the
	// uniform-shared cache (Figure 5), and the commercial workloads on
	// the private caches and the CR-only and ISC-only designs (Figures
	// 5, 8 and 9).
	medium = &sharedEval{
		rc: RunConfig{WarmupInstr: 2_500_000, Instructions: 1_000_000, Seed: 42},
		cells: func(e *Eval) []Cell {
			return append(e.cells([]input{e.mtInput(e.profiles[0])}, design(UniformShared)),
				e.cells(e.inputs(commercialRows), designs(Private, NuRAPIDCR, NuRAPIDISC)...)...)
		},
	}
)

// TestRunValidatesConfig: the library run path rejects a scale that
// cannot measure anything with an "experiments: " panic, as the
// binaries reject the same flags, instead of reporting an IPC of 0.
func TestRunValidatesConfig(t *testing.T) {
	for _, rc := range []RunConfig{
		{WarmupInstr: 100, Instructions: 0, Seed: 42},
		{WarmupInstr: -1, Instructions: 100, Seed: 42},
	} {
		w := workload.New(workload.Multithreaded(rc.Seed)[0])
		f := CapturePanic("run", func() { Run(UniformShared, w, rc) })
		if f == nil {
			t.Errorf("Run(%+v) did not panic", rc)
			continue
		}
		if !strings.HasPrefix(f.Diagnostic, "experiments: ") {
			t.Errorf("Run(%+v) panicked with %q, want an experiments: message", rc, f.Diagnostic)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	s := Table1().String()
	for _, want := range []string{"26", "33", "59", "10", "6,20,20,33", "32"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	s := Table2().String()
	for _, want := range []string{"apsi, art, equake, mesa", "ammp, gzip, vortex, wupwise"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestTable3ListsAllWorkloads(t *testing.T) {
	s := Table3(42).String()
	for _, w := range []string{"oltp", "apache", "specjbb", "ocean", "barnes"} {
		if !strings.Contains(s, w) {
			t.Errorf("Table 3 missing %s", w)
		}
	}
}

func TestNewDesignUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown design did not panic")
		}
	}()
	NewDesign("bogus")
}

// TestAllDesignsConstruct: every listed design builds through its one
// constructor at every size of the capacity sweep and runs briefly.
func TestAllDesignsConstruct(t *testing.T) {
	names := DesignNames()
	if len(names) != 9 {
		t.Fatalf("DesignNames() lists %d designs, want 9: %v", len(names), names)
	}
	rc := RunConfig{WarmupInstr: 2_000, Instructions: 2_000, Seed: 42}
	for _, d := range names {
		for _, mb := range []int{4, 8, 16} {
			cfg := sized(d, mb)
			r := simulate(cfg.l2(), workload.New(workload.OLTP(rc.Seed)), rc)
			if r.Instructions < 4*rc.Instructions || r.Cycles <= 0 {
				t.Errorf("%s: degenerate run %d instructions, %d cycles", cfg.name, r.Instructions, r.Cycles)
			}
		}
	}
}

// TestFigure5Shape checks the core Figure 5 claims on OLTP at quick
// scale: the shared cache has no sharing misses; the private caches
// have all four access types with more capacity misses than shared.
func TestFigure5Shape(t *testing.T) {
	e := mediumEval(t)
	p := e.Profiles()[0] // oltp
	shared := e.MT(UniformShared, p).L2
	private := e.MT(Private, p).L2

	if shared.Accesses.Count(memsys.LabelROS) != 0 || shared.Accesses.Count(memsys.LabelRWS) != 0 {
		t.Error("shared cache recorded sharing misses")
	}
	for _, l := range []string{memsys.LabelHit, memsys.LabelROS, memsys.LabelRWS, memsys.LabelCapacity} {
		if private.Accesses.Count(l) == 0 {
			t.Errorf("private cache recorded no %s", l)
		}
	}
	if private.Accesses.Frac(memsys.LabelCapacity) <= shared.Accesses.Frac(memsys.LabelCapacity) {
		t.Error("private capacity-miss fraction not above shared's (uncontrolled replication)")
	}
	// OLTP's private-cache misses are RWS-dominated.
	if private.Accesses.Frac(memsys.LabelRWS) <= private.Accesses.Frac(memsys.LabelROS) {
		t.Error("OLTP should be RWS-dominated on private caches")
	}
}

// TestFigure6Ordering checks ideal > private > uniform-shared and
// ideal > non-uniform-shared > uniform-shared on the commercial
// average.
func TestFigure6Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("deterministic full-pipeline ordering; skipped under -short (race gate)")
	}
	e := quickEval(t)
	ideal := e.Speedup(Ideal)
	private := e.Speedup(Private)
	snuca := e.Speedup(NonUniform)
	if !(ideal > private && private > 1) {
		t.Errorf("ordering broken: ideal %.3f, private %.3f", ideal, private)
	}
	if !(ideal > snuca && snuca > 1) {
		t.Errorf("ordering broken: ideal %.3f, snuca %.3f", ideal, snuca)
	}
}

// TestFigure8CRReducesCapacityMisses: CR's controlled replication must
// cut the private caches' capacity-miss fraction.
func TestFigure8CRReducesCapacityMisses(t *testing.T) {
	e := mediumEval(t)
	priv := e.MissFrac(Private, memsys.LabelCapacity)
	cr := e.MissFrac(NuRAPIDCR, memsys.LabelCapacity)
	if cr >= priv {
		t.Errorf("CR capacity misses %.4f not below private %.4f", cr, priv)
	}
}

// TestFigure8ISCReducesRWSMisses: ISC must cut RWS misses by a large
// factor (the paper reports 80%).
func TestFigure8ISCReducesRWSMisses(t *testing.T) {
	e := quickEval(t)
	priv := e.MissFrac(Private, memsys.LabelRWS)
	isc := e.MissFrac(NuRAPIDISC, memsys.LabelRWS)
	if isc > priv/2 {
		t.Errorf("ISC RWS misses %.4f not below half of private's %.4f", isc, priv)
	}
}

// TestFigure9ClosestDominates: both CR and ISC serve most accesses
// from the closest d-group, and CR more so than ISC (the producer's
// writes go to the copy near the reader).
func TestFigure9ClosestDominates(t *testing.T) {
	e := mediumEval(t)
	crClosest := e.DataFrac(NuRAPIDCR, memsys.LabelClosest)
	iscClosest := e.DataFrac(NuRAPIDISC, memsys.LabelClosest)
	if crClosest < 0.5 || iscClosest < 0.5 {
		t.Errorf("closest-d-group fractions too low: CR %.3f ISC %.3f", crClosest, iscClosest)
	}
	// At full scale CR's closest fraction additionally exceeds ISC's
	// (75% vs 71%; paper: 83% vs 76%) — that ordering needs CR's
	// replicas fully built, so it is asserted only by the full-scale
	// regeneration recorded in EXPERIMENTS.md, not at this test scale.
	crFar := e.DataFrac(NuRAPIDCR, memsys.LabelFarther)
	iscFar := e.DataFrac(NuRAPIDISC, memsys.LabelFarther)
	if iscFar <= crFar {
		t.Errorf("ISC farther fraction %.3f not above CR's %.3f (writer reaches the remote copy)", iscFar, crFar)
	}
}

// TestFigure10Headline: the paper's headline — CMP-NuRAPID outperforms
// both the uniform-shared cache and the private caches on the
// commercial average, and sits below ideal.
func TestFigure10Headline(t *testing.T) {
	e := quickEval(t)
	nur := e.Speedup(NuRAPID)
	priv := e.Speedup(Private)
	ideal := e.Speedup(Ideal)
	if nur <= 1 {
		t.Errorf("CMP-NuRAPID speedup %.3f <= 1 over uniform-shared", nur)
	}
	if nur <= priv {
		t.Errorf("CMP-NuRAPID %.3f not above private %.3f", nur, priv)
	}
	if nur >= ideal {
		t.Errorf("CMP-NuRAPID %.3f above ideal %.3f", nur, ideal)
	}
}

// TestFigure11MissRateOrdering: shared <= CMP-NuRAPID < private on the
// mix average (the paper's 8.9% / 9.7% / 14%).
func TestFigure11MissRateOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("deterministic full-pipeline ordering; skipped under -short (race gate)")
	}
	e := quickEval(t)
	sh := e.MixMissRate(UniformShared)
	nu := e.MixMissRate(NuRAPID)
	pr := e.MixMissRate(Private)
	if !(sh <= nu+0.02 && nu < pr) {
		t.Errorf("miss-rate ordering broken: shared %.3f, NuRAPID %.3f, private %.3f", sh, nu, pr)
	}
}

// TestFigure12Ordering: CMP-NuRAPID > private > non-uniform-shared >
// uniform-shared on the mix average.
func TestFigure12Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("deterministic full-pipeline ordering; skipped under -short (race gate)")
	}
	e := quickEval(t)
	nu := e.MixSpeedup(NuRAPID)
	pr := e.MixSpeedup(Private)
	sn := e.MixSpeedup(NonUniform)
	if !(nu > pr && pr > sn && sn > 1) {
		t.Errorf("ordering broken: NuRAPID %.3f, private %.3f, snuca %.3f", nu, pr, sn)
	}
}

// TestClosestDGroupHitFrac: §5.2.1 reports 85% of CMP-NuRAPID's
// accesses hit the closest d-group on the mixes.
func TestClosestDGroupHitFrac(t *testing.T) {
	e := quickEval(t)
	if f := e.ClosestDGroupHitFrac(); f < 0.6 {
		t.Errorf("closest-d-group fraction %.3f too low", f)
	}
}

// TestDeterminism: identical run configs give identical results.
func TestDeterminism(t *testing.T) {
	rc := RunConfig{WarmupInstr: 50_000, Instructions: 50_000, Seed: 7}
	a := Run(NuRAPID, workload.New(workload.OLTP(rc.Seed)), rc)
	b := Run(NuRAPID, workload.New(workload.OLTP(rc.Seed)), rc)
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
		t.Errorf("non-deterministic: %d/%d vs %d/%d cycles/instr",
			a.Cycles, a.Instructions, b.Cycles, b.Instructions)
	}
	if a.L2.Accesses.Total() != b.L2.Accesses.Total() {
		t.Error("non-deterministic L2 access counts")
	}
}

// TestIdenticalStreamsAcrossDesigns: different designs must see the
// same workload (same op counts at the stream level ⇒ same retired
// instruction mix at equal instruction targets).
func TestIdenticalStreamsAcrossDesigns(t *testing.T) {
	rc := RunConfig{WarmupInstr: 20_000, Instructions: 20_000, Seed: 3}
	a := Run(UniformShared, workload.New(workload.Barnes(rc.Seed)), rc)
	b := Run(Ideal, workload.New(workload.Barnes(rc.Seed)), rc)
	// Same instruction quantum retired per core.
	for c := range a.Cores {
		if a.Cores[c].Instructions == 0 || b.Cores[c].Instructions == 0 {
			t.Fatal("degenerate run")
		}
	}
	if a.Design == b.Design {
		t.Error("designs not distinct")
	}
}

func TestEvalCaching(t *testing.T) {
	e := NewEval(RunConfig{WarmupInstr: 10_000, Instructions: 10_000, Seed: 1})
	p := e.Profiles()[4] // barnes (smallest)
	r1 := e.MT(Ideal, p)
	r2 := e.MT(Ideal, p)
	if r1.Cycles != r2.Cycles {
		t.Error("cached run differs")
	}
	if n := len(cacheEntries(e)); n != 1 {
		t.Errorf("cache holds %d entries, want 1", n)
	}
}

// cacheEntries returns the entries of e's own memo (not its seed
// sweep's child evaluations).
func cacheEntries(e *Eval) []*cacheEntry {
	var ents []*cacheEntry
	e.cache.Range(func(_, v any) bool {
		ents = append(ents, v.(*cacheEntry))
		return true
	})
	return ents
}

func TestSummaryMentionsHeadline(t *testing.T) {
	e := quickEval(t)
	s := e.Summary()
	if !strings.Contains(s, "uniform-shared") || !strings.Contains(s, "private") {
		t.Errorf("summary missing designs:\n%s", s)
	}
}
