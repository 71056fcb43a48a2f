package simlint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestSyncMutantsCaught locks the seeded concurrency mutants in
// testdata/syncmutants to the diagnostics synccheck must produce for
// them: a WaitGroup.Add inside the goroutine it covers, an Unlock
// dropped from a loop body, and a guarded-field read outside the lock.
// The last one is the earn-your-keep mutant: its package test passes
// `go test -race -short` (the lock-free read only executes after
// wg.Wait, so no racy schedule ever runs), which scripts/mutants.sh
// verifies alongside the synccheck catch. If an analyzer refactor
// stops catching any of these shapes, this test fails before CI's
// mutant-catch step does.
func TestSyncMutantsCaught(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "syncmutants"))
	if err != nil {
		t.Fatalf("Load(testdata/syncmutants): %v", err)
	}
	for _, pkg := range prog.Packages {
		if len(pkg.TypeErrors) != 0 {
			t.Fatalf("mutant fixture must compile (the races are silent): %v", pkg.TypeErrors)
		}
	}

	diags := prog.Run([]*Analyzer{NewSyncCheck()})
	want := []struct {
		file    string
		message string
	}{
		{"addafter/pool.go", "wg.Add inside the goroutine it covers races Wait"},
		{"droppedunlock/pool.go", "locked in this loop body is still held at the end of the iteration"},
		{"lockfree/pool.go", "read of done (guarded by mu) without holding p.mu"},
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
		if diags[i].Rule != "synccheck" {
			t.Errorf("diagnostic %d rule = %q, want synccheck", i, diags[i].Rule)
		}
	}
}
