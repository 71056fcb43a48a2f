package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSelectAll(t *testing.T) {
	sel, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ex := range sel {
		if !ex.InAll {
			t.Errorf("Select(all) included opt-in experiment %s", ex.Name)
		}
		names[ex.Name] = true
	}
	for _, want := range []string{"table1", "table3", "fig5", "fig12", "summary"} {
		if !names[want] {
			t.Errorf("Select(all) missing %s", want)
		}
	}
	if names["abl-promotion"] || names["sens-seed"] {
		t.Error("ablations/sensitivity must be opt-in, not part of all")
	}
}

func TestSelectAllPlusOptIn(t *testing.T) {
	sel, err := Select("all,abl-promotion")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ex := range sel {
		if ex.Name == "abl-promotion" {
			found = true
		}
	}
	if !found {
		t.Error("all,abl-promotion did not include the ablation")
	}
}

func TestSelectUnknownName(t *testing.T) {
	_, err := Select("fig13")
	if err == nil {
		t.Fatal("unknown experiment name accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "fig13") {
		t.Errorf("error does not name the offender: %v", err)
	}
	for _, want := range []string{"fig5", "table1", "summary", "abl-promotion"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error does not list valid name %s: %v", want, err)
		}
	}
}

func TestSelectEmpty(t *testing.T) {
	for _, spec := range []string{"", " ", ",", " , "} {
		if _, err := Select(spec); err == nil {
			t.Errorf("empty selection %q accepted", spec)
		}
	}
}

func TestSelectPreservesRenderOrder(t *testing.T) {
	// Selection order must be the registry's rendering order, not the
	// order the user typed the names in.
	sel, err := Select("fig10,table1,fig5")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ex := range sel {
		got = append(got, ex.Name)
	}
	want := []string{"table1", "fig5", "fig10"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("render order %v, want %v", got, want)
	}
}

func TestExperimentsDeclareRenderers(t *testing.T) {
	for _, ex := range Experiments() {
		if (ex.Table == nil) == (ex.Text == nil) {
			t.Errorf("%s must declare exactly one of Table/Text", ex.Name)
		}
	}
}

// TestPlanDeduplicates: figures 8, 9, and 10 share runs; the plan must
// request each (design, workload) cell once.
func TestPlanDeduplicates(t *testing.T) {
	e := NewEval(RunConfig{WarmupInstr: 1, Instructions: 1, Seed: 1})
	sel, err := Select("fig8,fig9,fig10")
	if err != nil {
		t.Fatal(err)
	}
	cells := Plan(sel, e)
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Key] {
			t.Errorf("duplicate cell %s in plan", c.Key)
		}
		seen[c.Key] = true
	}
	// fig8: shared, private, CR, ISC; fig9: CR, ISC (shared with fig8);
	// fig10: shared (dup), snuca, private (dup), ideal, NuRAPID.
	// Unique designs: shared, private, CR, ISC, snuca, ideal, NuRAPID = 7
	// across 5 profiles.
	if want := 7 * len(e.Profiles()); len(cells) != want {
		t.Errorf("plan has %d cells, want %d", len(cells), want)
	}
}

// TestPlanCounts pins how many simulations the plans hold. A column
// equal to an existing design reuses that design's key, so the four
// NuRAPID ablations share their default-config columns with each other
// and with the figures, and bandwidth's four cells are all figure
// cells.
func TestPlanCounts(t *testing.T) {
	e := NewEval(RunConfig{WarmupInstr: 1, Instructions: 1, Seed: 42})
	optIn := "abl-promotion,abl-tags,abl-replication,abl-optimizations,abl-cmigration," +
		"abl-update,abl-dnuca,bandwidth,capacity,sens-size,sens-seed"
	for spec, want := range map[string]int{
		"abl-tags,abl-replication,abl-cmigration,abl-optimizations": 30,
		"all":          51,
		"all," + optIn: 114,
	} {
		sel, err := Select(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(Plan(sel, e)); got != want {
			t.Errorf("-exp %s plans %d cells, want %d", spec, got, want)
		}
	}
}

// TestPlanAllKeys pins the keys and order "-exp all" plans: the repo
// benchmark parses these keys back into cells, and its reference
// fingerprints are recorded against them.
func TestPlanAllKeys(t *testing.T) {
	want := strings.Fields(`
		mt/uniform-shared/oltp mt/private/oltp mt/uniform-shared/apache mt/private/apache
		mt/uniform-shared/specjbb mt/private/specjbb mt/uniform-shared/ocean mt/private/ocean
		mt/uniform-shared/barnes mt/private/barnes
		mt/non-uniform-shared/oltp mt/ideal/oltp mt/non-uniform-shared/apache mt/ideal/apache
		mt/non-uniform-shared/specjbb mt/ideal/specjbb mt/non-uniform-shared/ocean mt/ideal/ocean
		mt/non-uniform-shared/barnes mt/ideal/barnes
		mt/CMP-NuRAPID-CR/oltp mt/CMP-NuRAPID-ISC/oltp mt/CMP-NuRAPID-CR/apache mt/CMP-NuRAPID-ISC/apache
		mt/CMP-NuRAPID-CR/specjbb mt/CMP-NuRAPID-ISC/specjbb mt/CMP-NuRAPID-CR/ocean mt/CMP-NuRAPID-ISC/ocean
		mt/CMP-NuRAPID-CR/barnes mt/CMP-NuRAPID-ISC/barnes
		mt/CMP-NuRAPID/oltp mt/CMP-NuRAPID/apache mt/CMP-NuRAPID/specjbb mt/CMP-NuRAPID/ocean mt/CMP-NuRAPID/barnes
		mp/uniform-shared/MIX1 mp/private/MIX1 mp/CMP-NuRAPID/MIX1 mp/uniform-shared/MIX2 mp/private/MIX2
		mp/CMP-NuRAPID/MIX2 mp/uniform-shared/MIX3 mp/private/MIX3 mp/CMP-NuRAPID/MIX3
		mp/uniform-shared/MIX4 mp/private/MIX4 mp/CMP-NuRAPID/MIX4
		mp/non-uniform-shared/MIX1 mp/non-uniform-shared/MIX2 mp/non-uniform-shared/MIX3 mp/non-uniform-shared/MIX4`)
	sel, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range Plan(sel, NewEval(RunConfig{WarmupInstr: 1, Instructions: 1, Seed: 42})) {
		got = append(got, c.Key)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-exp all plan changed:\n got  %v\n want %v", got, want)
	}
}

// TestRenderReadsOnlyPlannedCells is the plan/render agreement check:
// once an experiment's planned cells have run, rendering it must find
// every value it reads already cached, and so add no cache entry (a
// seed sweep's child evaluations included).
func TestRenderReadsOnlyPlannedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("deterministic full-registry check; skipped under -short (race gate)")
	}
	var entries func(e *Eval) int
	entries = func(e *Eval) int {
		ents := cacheEntries(e)
		n := len(ents)
		for _, ent := range ents {
			if sub, ok := ent.val.(*Eval); ok {
				n += entries(sub)
			}
		}
		return n
	}
	rc := RunConfig{WarmupInstr: 2_000, Instructions: 2_000, Seed: 42}
	for _, ex := range Experiments() {
		e := NewEval(rc)
		if failures := ExecuteCells(Plan([]Experiment{ex}, e), 2, false, nil); len(failures) > 0 {
			t.Fatalf("%s: cell %s failed: %s", ex.Name, failures[0].Key, failures[0].Diagnostic)
		}
		before := entries(e)
		if ex.Table != nil {
			ex.Table(e)
		} else {
			ex.Text(e)
		}
		if after := entries(e); after != before {
			t.Errorf("%s: rendering added %d cache entries its plan did not fill", ex.Name, after-before)
		}
	}
}

// TestExecuteCellsSingleFill: many cells racing on few cache keys must
// fill each key exactly once.
func TestExecuteCellsSingleFill(t *testing.T) {
	e := NewEval(RunConfig{WarmupInstr: 1, Instructions: 1, Seed: 1})
	var fills atomic.Int64
	var cells []Cell
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("test/key%d", i%4)
		cells = append(cells, Cell{Key: key, Run: func() {
			e.memo(key, func() any {
				fills.Add(1)
				return key
			})
		}})
	}
	ExecuteCells(cells, 8, false, nil)
	if got := fills.Load(); got != 4 {
		t.Errorf("filled %d times, want 4 (single-fill broken)", got)
	}
}

// TestExecuteCellsProgress: the progress callback is serialized and
// sees every completion exactly once, in counting order.
func TestExecuteCellsProgress(t *testing.T) {
	var cells []Cell
	for i := 0; i < 17; i++ {
		cells = append(cells, Cell{Key: fmt.Sprintf("c%d", i), Run: func() {}})
	}
	var dones []int
	ExecuteCells(cells, 4, false, func(done, total int, key string, _ time.Duration) {
		dones = append(dones, done)
		if total != len(cells) {
			t.Errorf("progress total %d, want %d", total, len(cells))
		}
	})
	if len(dones) != len(cells) {
		t.Fatalf("progress called %d times, want %d", len(dones), len(cells))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("done sequence out of order at %d: %v", i, dones)
		}
	}
}

// TestSchedulerEquivalence is the determinism contract: a parallel
// execution of the plan followed by rendering must produce the exact
// bytes a purely sequential evaluation produces. Runs at tiny scale so
// the race-short gate (`go test -race -short`) exercises the
// concurrent path on every CI run. Between them the selections cover
// both kinds of memo fill: plain simulations (which bandwidth's cells
// also are) and the seed sweep's child evaluations (sens-seed).
func TestSchedulerEquivalence(t *testing.T) {
	for _, tc := range []struct {
		exps   string
		rc     RunConfig
		render func(e *Eval) string
	}{
		{"fig5,fig11,summary", RunConfig{WarmupInstr: 20_000, Instructions: 20_000, Seed: 9},
			func(e *Eval) string {
				return e.Figure5().String() + "\n" + e.Figure11().String() + "\n" + e.Summary()
			}},
		{"sens-seed,bandwidth", RunConfig{WarmupInstr: 2_000, Instructions: 2_000, Seed: 9},
			func(e *Eval) string {
				return e.SeedSensitivity(e.seedSweep()).String() + "\n" + e.BandwidthReport().String()
			}},
	} {
		t.Run(tc.exps, func(t *testing.T) {
			t.Parallel()
			seq := NewEval(tc.rc) // no scheduling: every run fills on demand
			seqOut := tc.render(seq)

			par := NewEval(tc.rc)
			sel, err := Select(tc.exps)
			if err != nil {
				t.Fatal(err)
			}
			ExecuteCells(Plan(sel, par), 8, false, nil)
			if parOut := tc.render(par); seqOut != parOut {
				t.Errorf("parallel rendering differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqOut, parOut)
			}
		})
	}
}

// TestExecuteCellsRecoversPanics: a panicking cell becomes a
// CellFailure while every other cell still runs to completion.
func TestExecuteCellsRecoversPanics(t *testing.T) {
	var ran atomic.Int64
	cells := []Cell{
		{Key: "good-0", Run: func() { ran.Add(1) }},
		{Key: "boom", Run: func() { panic("experiments: injected cell fault") }},
		{Key: "good-1", Run: func() { ran.Add(1) }},
		{Key: "good-2", Run: func() { ran.Add(1) }},
	}
	failures := ExecuteCells(cells, 2, false, nil)
	if ran.Load() != 3 {
		t.Errorf("healthy cells ran %d times, want 3", ran.Load())
	}
	if len(failures) != 1 {
		t.Fatalf("got %d failures, want 1: %+v", len(failures), failures)
	}
	f := failures[0]
	if f.Key != "boom" {
		t.Errorf("failure key %q, want boom", f.Key)
	}
	if f.Diagnostic != "experiments: injected cell fault" {
		t.Errorf("diagnostic %q", f.Diagnostic)
	}
	if !strings.Contains(f.Stack, "scheduler_test") {
		t.Errorf("stack does not point at the panicking cell:\n%s", f.Stack)
	}
}

// TestExecuteCellsFailuresInPlanOrder: failures come back sorted by
// plan position regardless of completion order.
func TestExecuteCellsFailuresInPlanOrder(t *testing.T) {
	var cells []Cell
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("cell-%02d", i)
		cells = append(cells, Cell{Key: key, Run: func() { panic("experiments: fault in " + key) }})
	}
	failures := ExecuteCells(cells, 6, false, nil)
	if len(failures) != len(cells) {
		t.Fatalf("got %d failures, want %d", len(failures), len(cells))
	}
	for i, f := range failures {
		if want := fmt.Sprintf("cell-%02d", i); f.Key != want {
			t.Fatalf("failure %d is %q, want %q (plan order)", i, f.Key, want)
		}
	}
}

// TestExecuteCellsFailFast: with failFast set, no cells are dispatched
// after the first failure is observed, at any worker count.
func TestExecuteCellsFailFast(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			var ran atomic.Int64
			cells := []Cell{
				{Key: "boom", Run: func() { panic("experiments: first cell fails") }},
			}
			for i := 0; i < 32; i++ {
				cells = append(cells, Cell{Key: fmt.Sprintf("tail-%d", i), Run: func() {
					ran.Add(1)
					time.Sleep(time.Millisecond)
				}})
			}
			failures := ExecuteCells(cells, workers, true, nil)
			if len(failures) == 0 {
				t.Fatal("failfast run reported no failures")
			}
			if failures[0].Key != "boom" {
				t.Errorf("first failure %q, want boom", failures[0].Key)
			}
			// With one worker the failure lands before any tail cell
			// can be dispatched, so nothing after it may run.
			if workers == 1 && ran.Load() != 0 {
				t.Errorf("failfast still ran %d cells after the failure", ran.Load())
			}
		})
	}
}

// TestExecuteCellsFailFastDrainsQueue: with failFast and several
// workers, the first failure stops dispatch — cells never handed out
// neither run nor count. Only cells already in flight when the failure
// landed may still finish, so at most workers-1 tails (plus the
// handful dispatched before the failure's completion is read) ever
// execute.
func TestExecuteCellsFailFastDrainsQueue(t *testing.T) {
	const tails = 64
	var ran atomic.Int64
	cells := []Cell{
		{Key: "boom", Run: func() { panic("experiments: first cell fails") }},
	}
	for i := 0; i < tails; i++ {
		cells = append(cells, Cell{Key: fmt.Sprintf("tail-%d", i), Run: func() {
			ran.Add(1)
			time.Sleep(2 * time.Millisecond)
		}})
	}
	var progressed atomic.Int64
	failures := ExecuteCells(cells, 4, true, func(done, total int, key string, _ time.Duration) {
		progressed.Add(1)
	})
	if len(failures) != 1 || failures[0].Key != "boom" {
		t.Fatalf("failures = %+v, want exactly boom", failures)
	}
	if got := ran.Load(); got >= tails/2 {
		t.Errorf("failfast ran %d of %d tail cells; dispatch did not stop", got, tails)
	}
	// Undispatched cells are skipped entirely: every progress callback is a
	// cell that actually executed, nothing more and nothing less.
	if got, want := progressed.Load(), ran.Load()+1; got != want {
		t.Errorf("progress fired %d times for %d executed cells; undispatched cells must not be counted", got, want)
	}
}

// TestMemoPoisoning: a panicking fill poisons the memo — every later
// read re-panics deterministically with the original value, and
// CapturePanic unwraps it back to the original diagnostic and stack.
func TestMemoPoisoning(t *testing.T) {
	e := NewEval(RunConfig{WarmupInstr: 1000, Instructions: 1000, Seed: 1})
	var fills atomic.Int64
	read := func() (failure *CellFailure) {
		return CapturePanic("poisoned", func() {
			e.memo("poisoned", func() any {
				fills.Add(1)
				panic("experiments: fill exploded")
			})
		})
	}
	f1 := read()
	f2 := read()
	if f1 == nil || f2 == nil {
		t.Fatal("poisoned memo read did not fail")
	}
	if fills.Load() != 1 {
		t.Errorf("fill ran %d times, want 1 (poison must be cached)", fills.Load())
	}
	if f1.Diagnostic != "experiments: fill exploded" || f2.Diagnostic != f1.Diagnostic {
		t.Errorf("poison diagnostics: %q then %q", f1.Diagnostic, f2.Diagnostic)
	}
	if f1.Value != f2.Value {
		t.Errorf("re-panic value differs: %v vs %v", f1.Value, f2.Value)
	}
	if !strings.Contains(f1.Stack, "scheduler_test") {
		t.Errorf("poisoned stack lost the original fill frame:\n%s", f1.Stack)
	}
	if f2.Stack != f1.Stack {
		t.Error("re-panic did not preserve the original fill stack")
	}
}

// TestCapturePanicPassthrough: no panic means no failure, and an
// error-valued panic is rendered via Error().
func TestCapturePanicPassthrough(t *testing.T) {
	if f := CapturePanic("ok", func() {}); f != nil {
		t.Errorf("clean run reported failure %+v", f)
	}
	f := CapturePanic("err", func() { panic(errors.New("experiments: wrapped error")) })
	if f == nil || f.Diagnostic != "experiments: wrapped error" {
		t.Errorf("error panic diagnostic: %+v", f)
	}
}
