package simlint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestUnitMutantsCaught locks the seeded unit-confusion mutants in
// testdata/unitmutants to the diagnostics unitcheck must produce for
// them. If a refactor of the analyzer stops catching either bug shape
// — the ps-as-cycles conversion swap or the timestamp+timestamp add —
// this test fails.
func TestUnitMutantsCaught(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "unitmutants"))
	if err != nil {
		t.Fatalf("Load(testdata/unitmutants): %v", err)
	}
	for _, pkg := range prog.Packages {
		if len(pkg.TypeErrors) != 0 {
			t.Fatalf("mutant fixture must compile (the bugs are type-correct): %v", pkg.TypeErrors)
		}
	}

	diags := prog.Run([]*Analyzer{NewUnitCheck()})
	want := []struct {
		file    string
		message string
	}{
		{"sim/sim.go", "raw conversion of units.Picoseconds into units.Cycles"},
		{"sim/sim.go", "direct + arithmetic on two units.Cycle timestamps"},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(want), formatDiags(diags))
	}
	for i, w := range want {
		if !strings.HasSuffix(filepath.ToSlash(diags[i].Pos.Filename), w.file) {
			t.Errorf("diagnostic %d in %s, want %s", i, diags[i].Pos.Filename, w.file)
		}
		if !strings.Contains(diags[i].Message, w.message) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, diags[i].Message, w.message)
		}
		if diags[i].Rule != "unitcheck" {
			t.Errorf("diagnostic %d rule = %q, want unitcheck", i, diags[i].Rule)
		}
	}
}
