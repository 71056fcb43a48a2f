package cmpnurapid_test

// TestFullReproduction re-derives EXPERIMENTS.md's headline claims at
// full scale. It takes about a minute (56–60 s wall, ≈110 s CPU on a
// 2-vCPU Xeon VM), so it only runs when explicitly requested:
//
//	CMPNURAPID_FULL=1 go test -run TestFullReproduction -timeout 30m .

import (
	"os"
	"testing"

	"cmpnurapid/internal/experiments"
	"cmpnurapid/internal/memsys"
)

func TestFullReproduction(t *testing.T) {
	if os.Getenv("CMPNURAPID_FULL") == "" {
		t.Skip("set CMPNURAPID_FULL=1 to run the full-scale reproduction (56–60 s on a 2-vCPU VM)")
	}
	e := experiments.NewEval(experiments.DefaultRunConfig())

	// Fill the run cache on the parallel scheduler first: concurrency
	// cannot change any number (single-fill cache, per-run seeded
	// streams), only the wall-clock this test costs.
	sel, err := experiments.Select("all")
	if err != nil {
		t.Fatal(err)
	}
	experiments.ExecuteCells(experiments.Plan(sel, e), experiments.DefaultParallelism(), false, nil)

	// Figure 10: CMP-NuRAPID beats shared and private; the fraction of
	// ideal's gain it captures matches the paper's 0.76 within 0.1.
	nur, priv, ideal := e.Speedup(experiments.NuRAPID), e.Speedup(experiments.Private), e.Speedup(experiments.Ideal)
	if !(nur > priv && priv > 1 && nur < ideal) {
		t.Errorf("Figure 10 ordering broken: NuRAPID %.3f private %.3f ideal %.3f", nur, priv, ideal)
	}
	frac := (nur - 1) / (ideal - 1)
	if frac < 0.6 || frac > 0.9 {
		t.Errorf("NuRAPID captures %.2f of ideal's gain, paper 0.76 (want 0.6-0.9)", frac)
	}

	// Figure 8: ISC cuts RWS misses by >=70% (paper: 80%).
	rwsPriv := e.MissFrac(experiments.Private, memsys.LabelRWS)
	rwsISC := e.MissFrac(experiments.NuRAPIDISC, memsys.LabelRWS)
	if rwsISC > rwsPriv*0.3 {
		t.Errorf("ISC RWS reduction too weak: %.4f vs private %.4f", rwsISC, rwsPriv)
	}

	// Figure 8: CR cuts capacity misses by >=30% (paper: 40%).
	capPriv := e.MissFrac(experiments.Private, memsys.LabelCapacity)
	capCR := e.MissFrac(experiments.NuRAPIDCR, memsys.LabelCapacity)
	if capCR > capPriv*0.7 {
		t.Errorf("CR capacity reduction too weak: %.4f vs private %.4f", capCR, capPriv)
	}

	// Figure 9: CR serves more accesses from the closest d-group than
	// ISC, and both above 65% (paper: 83% and 76%).
	crClosest := e.DataFrac(experiments.NuRAPIDCR, memsys.LabelClosest)
	iscClosest := e.DataFrac(experiments.NuRAPIDISC, memsys.LabelClosest)
	if crClosest <= iscClosest || iscClosest < 0.65 {
		t.Errorf("Figure 9 shape broken: CR %.3f ISC %.3f", crClosest, iscClosest)
	}

	// Figure 11: shared ~<= NuRAPID < private miss rates (paper:
	// 8.9% / 9.7% / 14%).
	sh, nu, pr := e.MixMissRate(experiments.UniformShared), e.MixMissRate(experiments.NuRAPID), e.MixMissRate(experiments.Private)
	if !(sh <= nu+0.01 && nu < pr) {
		t.Errorf("Figure 11 ordering broken: %.3f / %.3f / %.3f", sh, nu, pr)
	}

	// Figure 12: NuRAPID > private > SNUCA > 1 on the mixes.
	mNu, mPr, mSn := e.MixSpeedup(experiments.NuRAPID), e.MixSpeedup(experiments.Private), e.MixSpeedup(experiments.NonUniform)
	if !(mNu > mPr && mPr > mSn && mSn > 1) {
		t.Errorf("Figure 12 ordering broken: %.3f / %.3f / %.3f", mNu, mPr, mSn)
	}

	// §5.2.1: most CMP-NuRAPID accesses hit the closest d-group on the
	// mixes. The paper reports 85% of accesses (93% of hits); we
	// measure ~69% of accesses (~76% of hits) because the synthetic
	// cache-hungry apps keep more of their active set spilled into
	// neighbours' d-groups — capacity stealing working harder, with
	// remote hits instead of the paper's misses.
	if f := e.ClosestDGroupHitFrac(); f < 0.6 {
		t.Errorf("closest-d-group fraction %.3f too low", f)
	}

	t.Logf("headlines: NuRAPID %.3fx, private %.3fx, ideal %.3fx (frac of ideal %.2f); mixes: NuRAPID %.3fx private %.3fx",
		nur, priv, ideal, frac, mNu, mPr)
}
