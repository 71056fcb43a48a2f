package simlint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestHotpathMutantsCaught locks the seeded hot-path mutants in
// testdata/hotpathmutants to the diagnostics the hotpath rule must
// produce for them: a fresh make inside a tick loop, a growing trace
// append, and the fmt.Sprintf feeding it. If an analyzer refactor
// stops catching any of these shapes, this test fails.
func TestHotpathMutantsCaught(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "hotpathmutants"))
	if err != nil {
		t.Fatalf("Load(testdata/hotpathmutants): %v", err)
	}
	diags := prog.Run([]*Analyzer{NewHotpath()})
	want := []struct {
		file    string
		message string
	}{
		{"sim/sim.go", "make allocates per call"},
		{"sim/sim.go", "append may grow its backing array"},
		{"sim/sim.go", "fmt.Sprintf formats and allocates"},
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
		if !strings.Contains(diags[i].Message, "hot path via sim.(*Core).Tick") {
			t.Errorf("diagnostic %d = %q, want the root named", i, diags[i].Message)
		}
		if diags[i].Rule != "hotpath" {
			t.Errorf("diagnostic %d rule = %q, want hotpath", i, diags[i].Rule)
		}
	}
}
