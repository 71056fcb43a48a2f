package simlint

import (
	"os"
	"path/filepath"
	"testing"
)

// repoRoot walks up from the working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// TestSelfLint runs the full default pass suite over this repository,
// so a plain `go test ./...` exercises every analyzer end-to-end on
// real sources and fails on any new violation. It is the only place
// the suite runs over the repository.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		// Type-checking the stdlib under -race is the slowest single
		// test in the tree; the normal-mode `go test ./...` runs it.
		t.Skip("self-lint skipped under -short; the normal-mode run covers it")
	}
	prog, err := Load(repoRoot(t))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(prog.Packages) < 15 {
		t.Fatalf("loaded only %d packages; loader lost part of the tree", len(prog.Packages))
	}
	for _, pkg := range prog.Packages {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("type error in %s: %v", pkg.Path, terr)
		}
	}
	diags := prog.Run(DefaultAnalyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
