package main

import (
	"math"
	"testing"
	"time"

	"cmpnurapid/internal/experiments"
)

// tinyRC keeps the simulation tests to a fraction of a second per cell.
func tinyRC(seed uint64) experiments.RunConfig {
	return experiments.RunConfig{WarmupInstr: 20_000, Instructions: 10_000, Seed: seed}
}

// specsFor returns a workload's cells for a seed.
func specsFor(t *testing.T, name string, seed uint64) []cellSpec {
	t.Helper()
	wl, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := wl.cells(wl.rc(seed))
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// The benchmark builds its cells itself so it can time their phases;
// they must simulate exactly what experiments.Eval.MT and .MP do, both
// untraced and traced, for both cell kinds.
func TestCellsMatchEval(t *testing.T) {
	const seed = 7
	rc := tinyRC(seed)
	e := experiments.NewEval(rc)
	specs := append(specsFor(t, "mt-commercial", seed), specsFor(t, "mp-fig12", seed)...)
	for _, s := range specs {
		want := fingerprint(s.eval(e))
		if got := fingerprint(runCell(s, rc, false).results); got != want {
			t.Errorf("%s: untraced fingerprint %s, Eval %s", s.key, got, want)
		}
		if got := fingerprint(runCell(s, rc, true).results); got != want {
			t.Errorf("%s: traced fingerprint %s, Eval %s", s.key, got, want)
		}
	}
}

// mt-commercial is Figure 10's cell set on the commercial profiles and
// mp-fig12 is Figure 12's plus ideal, keyed as Eval keys them; the
// sweep is exactly the plan `-exp all` runs.
func TestCellComposition(t *testing.T) {
	const seed = 42
	e := experiments.NewEval(experiments.QuickRunConfig())
	mt := specsFor(t, "mt-commercial", seed)
	if len(mt) != 15 {
		t.Fatalf("mt-commercial has %d cells, want 15", len(mt))
	}
	for i, s := range mt {
		p := e.Profiles()[i/len(fiveDesigns)]
		if s.profile != p || s.design != fiveDesigns[i%len(fiveDesigns)] || s.mix != -1 {
			t.Errorf("mt-commercial cell %d = %s, want %s on %s", i, s.key, fiveDesigns[i%len(fiveDesigns)], p.Name)
		}
	}
	mp := specsFor(t, "mp-fig12", seed)
	if len(mp) != 20 {
		t.Fatalf("mp-fig12 has %d cells, want 20", len(mp))
	}
	for i, s := range mp {
		if s.mix != i/len(fiveDesigns) || s.design != fiveDesigns[i%len(fiveDesigns)] {
			t.Errorf("mp-fig12 cell %d = %s", i, s.key)
		}
	}
	sel, err := experiments.Select("all")
	if err != nil {
		t.Fatal(err)
	}
	plan := experiments.Plan(sel, e)
	sweep := specsFor(t, "sweep-quick", seed)
	if len(sweep) != len(plan) || len(plan) != 51 {
		t.Fatalf("sweep-quick has %d cells, plan %d, want 51", len(sweep), len(plan))
	}
	for i := range plan {
		if sweep[i].key != plan[i].Key {
			t.Errorf("sweep-quick cell %d = %s, plan %s", i, sweep[i].key, plan[i].Key)
		}
	}
}

// A traced L2 must expose exactly the wrapped design's optional
// interfaces: cmpsim switches to directory-mode L1 coherence when
// L1Coherent is missing, and drops write-through when
// CommunicationProber is.
func TestTracedL2KeepsOptionalInterfaces(t *testing.T) {
	designs := append([]experiments.DesignName{experiments.NuRAPIDCR, experiments.NuRAPIDISC}, fiveDesigns...)
	for _, d := range designs {
		inner := experiments.NewDesign(d)
		wrapped, err := newCellTrace(d).wrapL2(inner)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := optionalSet(wrapped), optionalSet(inner); got != want {
			t.Errorf("%s: traced set %05b, design %05b", d, got, want)
		}
	}
	all := optCommunication | optL1Coherent | optL1Invalidator | optLineState | optBusBacklog
	if got := optionalSet(experiments.NewDesign(experiments.NuRAPID)); got != all {
		t.Errorf("CMP-NuRAPID implements %05b, want all five %05b", got, all)
	}
}

// Per-layer self times, the timer cost and the pool's idle time must
// add up to the traced round's worker time.
func TestLayerSelfTimesAddUp(t *testing.T) {
	specs := specsFor(t, "mt-commercial", 3)[:5]
	r := runRound(specs, tinyRC(3), 1, true)
	lt := accountRound(r, calibrate())
	sum := lt.idle + lt.workloadSelf + lt.cmpsimSelf + lt.timer
	for _, d := range lt.designs {
		sum += d.self
	}
	want := time.Duration(lt.workers) * lt.wall
	if diff := math.Abs(float64(sum - want)); diff > float64(len(specs))*10 {
		t.Errorf("layers sum to %v, worker time %v", sum, want)
	}
	if lt.nextCalls == 0 || lt.l2Calls == 0 || lt.invalCalls == 0 || len(lt.designs) != 5 {
		t.Errorf("traced round counted nothing: %+v", lt)
	}
}

// Counts in the traced report repeat exactly for a seed.
func TestTracedCountsDeterministic(t *testing.T) {
	specs := specsFor(t, "mp-fig12", 5)[:5]
	cal := calibration{}
	a := accountRound(runRound(specs, tinyRC(5), 1, true), cal).metrics(time.Second)
	b := accountRound(runRound(specs, tinyRC(5), 1, true), cal).metrics(time.Second)
	for n, m := range a {
		if exactCount(n, m.Unit) && m != b[n] {
			t.Errorf("%s: %v then %v", n, m.Value, b[n].Value)
		}
	}
}

// reference.txt covers every cell of every workload at the default seed.
func TestReferenceCoversEveryCell(t *testing.T) {
	stored, err := parseReference(referenceText)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range benchWorkloads() {
		specs := specsFor(t, wl.name, defaultSeed)
		if len(stored[wl.name]) != len(specs) {
			t.Errorf("%s: reference has %d cells, workload %d", wl.name, len(stored[wl.name]), len(specs))
		}
		for _, s := range specs {
			if stored[wl.name][s.key] == "" {
				t.Errorf("%s: no reference for %s", wl.name, s.key)
			}
		}
	}
}
