package cmpnurapid_test

// One benchmark per table and figure of the paper's evaluation, plus
// the design-choice ablations. Each benchmark regenerates its
// table/figure at a reduced scale per iteration and reports the
// figure's headline quantity via ReportMetric, so
//
//	go test -bench=. -benchmem
//
// exercises the entire evaluation pipeline. EXPERIMENTS.md records the
// full-scale numbers produced by cmd/experiments.

import (
	"testing"

	"cmpnurapid"
	"cmpnurapid/internal/core"
	"cmpnurapid/internal/experiments"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/stats"
	"cmpnurapid/internal/workload"
)

// benchRC is the per-iteration simulation scale: small enough that a
// benchmark iteration is seconds, large enough that the reported
// metrics are directionally meaningful.
func benchRC() experiments.RunConfig {
	return experiments.RunConfig{WarmupInstr: 300_000, Instructions: 200_000, Seed: 42}
}

func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := experiments.Table1()
		if t.NumRows() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.Table2()
	}
}

func BenchmarkTable3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.Table3(benchRC().Seed)
	}
}

// figureBench runs one figure's regeneration per iteration and reports
// metrics extracted from the final evaluation.
func figureBench(b *testing.B, gen func(e *experiments.Eval) *stats.Table, metrics func(e *experiments.Eval, b *testing.B)) {
	b.Helper()
	b.ReportAllocs()
	var last *experiments.Eval
	for i := 0; i < b.N; i++ {
		e := experiments.NewEval(benchRC())
		if t := gen(e); t.NumRows() == 0 {
			b.Fatal("empty figure")
		}
		last = e
	}
	if last != nil && metrics != nil {
		metrics(last, b)
	}
}

func BenchmarkFigure5(b *testing.B) {
	figureBench(b, (*experiments.Eval).Figure5, func(e *experiments.Eval, b *testing.B) {
		b.ReportMetric(100*e.MissFrac(experiments.Private, memsys.LabelRWS), "private-RWS-%")
		b.ReportMetric(100*e.MissFrac(experiments.UniformShared, memsys.LabelCapacity), "shared-cap-%")
	})
}

func BenchmarkFigure6(b *testing.B) {
	figureBench(b, (*experiments.Eval).Figure6, func(e *experiments.Eval, b *testing.B) {
		b.ReportMetric(e.Speedup(experiments.Ideal), "ideal-x")
		b.ReportMetric(e.Speedup(experiments.Private), "private-x")
		b.ReportMetric(e.Speedup(experiments.NonUniform), "snuca-x")
	})
}

func BenchmarkFigure7(b *testing.B) {
	figureBench(b, (*experiments.Eval).Figure7, func(e *experiments.Eval, b *testing.B) {
		ros := e.ReuseFracs(true)
		b.ReportMetric(100*ros[0], "ROS-0reuse-%")
		rws := e.ReuseFracs(false)
		b.ReportMetric(100*rws[2], "RWS-2to5-%")
	})
}

func BenchmarkFigure8(b *testing.B) {
	figureBench(b, (*experiments.Eval).Figure8, func(e *experiments.Eval, b *testing.B) {
		b.ReportMetric(100*e.MissFrac(experiments.NuRAPIDISC, memsys.LabelRWS), "ISC-RWS-%")
		b.ReportMetric(100*e.MissFrac(experiments.Private, memsys.LabelRWS), "private-RWS-%")
	})
}

func BenchmarkFigure9(b *testing.B) {
	figureBench(b, (*experiments.Eval).Figure9, func(e *experiments.Eval, b *testing.B) {
		b.ReportMetric(100*e.DataFrac(experiments.NuRAPIDCR, memsys.LabelClosest), "CR-closest-%")
		b.ReportMetric(100*e.DataFrac(experiments.NuRAPIDISC, memsys.LabelClosest), "ISC-closest-%")
	})
}

func BenchmarkFigure10(b *testing.B) {
	figureBench(b, (*experiments.Eval).Figure10, func(e *experiments.Eval, b *testing.B) {
		b.ReportMetric(e.Speedup(experiments.NuRAPID), "nurapid-x")
		b.ReportMetric(e.Speedup(experiments.Private), "private-x")
	})
}

func BenchmarkFigure11(b *testing.B) {
	figureBench(b, (*experiments.Eval).Figure11, func(e *experiments.Eval, b *testing.B) {
		b.ReportMetric(100*e.MixMissRate(experiments.UniformShared), "shared-miss-%")
		b.ReportMetric(100*e.MixMissRate(experiments.Private), "private-miss-%")
		b.ReportMetric(100*e.MixMissRate(experiments.NuRAPID), "nurapid-miss-%")
	})
}

func BenchmarkFigure12(b *testing.B) {
	figureBench(b, (*experiments.Eval).Figure12, func(e *experiments.Eval, b *testing.B) {
		b.ReportMetric(e.MixSpeedup(experiments.NuRAPID), "nurapid-x")
		b.ReportMetric(e.MixSpeedup(experiments.Private), "private-x")
	})
}

// evaluationBench runs the whole "all" selection — plan every cell,
// execute on the scheduler with the given worker count, render the
// headline figure — so `go test -bench Evaluation -benchtime 1x`
// records the sequential-vs-parallel wall-clock of the evaluation.
func evaluationBench(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	sel, err := experiments.Select("all")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		e := experiments.NewEval(benchRC())
		cells := experiments.Plan(sel, e)
		experiments.ExecuteCells(cells, workers, false, nil)
		if e.Figure10().NumRows() == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkEvaluationSequential(b *testing.B) { evaluationBench(b, 1) }

func BenchmarkEvaluationParallel(b *testing.B) {
	evaluationBench(b, experiments.DefaultParallelism())
}

// ablationBenchRC is larger than benchRC: the ablation effects only
// appear once the tag arrays and d-groups fill (see
// internal/experiments/abl_scale_test.go).
func ablationBenchRC() experiments.RunConfig {
	return experiments.RunConfig{WarmupInstr: 3_000_000, Instructions: 1_500_000, Seed: 42}
}

// runNuRAPIDVariant runs a CMP-NuRAPID whose default config is
// mutated by mut on w, through the public API.
func runNuRAPIDVariant(rc experiments.RunConfig, w cmpnurapid.Workload, mut func(*cmpnurapid.NuRAPIDConfig)) cmpnurapid.Results {
	cfg := cmpnurapid.DefaultNuRAPIDConfig()
	mut(&cfg)
	sys := cmpnurapid.NewSystemWith(cmpnurapid.NewCMPNuRAPID(cfg), w)
	sys.Warmup(rc.WarmupInstr)
	return sys.Run(rc.Instructions)
}

func BenchmarkAblationPromotion(b *testing.B) {
	b.ReportAllocs()
	rc := ablationBenchRC()
	promote := func(pol core.PromotionPolicy) cmpnurapid.Results {
		return runNuRAPIDVariant(rc, cmpnurapid.Mixes(rc.Seed)[2], // MIX3: mcf vs small apps
			func(c *cmpnurapid.NuRAPIDConfig) { c.Promotion = pol })
	}
	var fastest, next float64
	for i := 0; i < b.N; i++ {
		base := promote(core.NoPromotion)
		fastest = cmpnurapid.Speedup(promote(core.Fastest), base)
		next = cmpnurapid.Speedup(promote(core.NextFastest), base)
	}
	b.ReportMetric(fastest, "fastest-x")
	b.ReportMetric(next, "next-fastest-x")
}

func BenchmarkAblationTagCapacity(b *testing.B) {
	b.ReportAllocs()
	rc := ablationBenchRC()
	var s [3]float64
	for i := 0; i < b.N; i++ {
		base := experiments.RunProfile(experiments.UniformShared, workload.OLTP(rc.Seed), rc)
		for j, factor := range []int{1, 2, 4} {
			r := runNuRAPIDVariant(rc, cmpnurapid.OLTP(rc.Seed),
				func(c *cmpnurapid.NuRAPIDConfig) { c.TagSets = c.TagSets * factor / 2 })
			s[j] = cmpnurapid.Speedup(r, base)
		}
	}
	b.ReportMetric(s[0], "tags1x-x")
	b.ReportMetric(s[1], "tags2x-x")
	b.ReportMetric(s[2], "tags4x-x")
}

func BenchmarkAblationOptimizations(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if t := experiments.NewEval(benchRC()).AblationOptimizations(); t.NumRows() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkAblationReplicationTrigger(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if t := experiments.NewEval(benchRC()).AblationReplicationTrigger(); t.NumRows() == 0 {
			b.Fatal("empty")
		}
	}
}
