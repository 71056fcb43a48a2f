package simlint

import (
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cmpnurapid/internal/mutcheck"
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
	diags := prog.Run(DefaultAnalyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestDefaultListsNamePackages: every directory a simlint rule list or
// mutcheck.DefaultPackages names must hold a Go package. The rules and
// the mutation campaign skip a path no package is under, so a stale
// entry (a deleted package still listed) would otherwise pass silently.
func TestDefaultListsNamePackages(t *testing.T) {
	root := repoRoot(t)
	listed := map[string][]string{} // directory -> the lists naming it
	add := func(list, dir string) { listed[dir] = append(listed[dir], list) }
	for _, dir := range DefaultRestrictedPaths {
		add("DefaultRestrictedPaths", dir)
	}
	for _, tgt := range DefaultCoverageTargets {
		add("DefaultCoverageTargets", tgt.Rel)
	}
	for dir := range DefaultRecoverAllowed {
		add("DefaultRecoverAllowed", dir)
	}
	for pkg, targets := range mutcheck.DefaultPackages {
		add("mutcheck.DefaultPackages", pkg)
		for _, target := range targets {
			add("mutcheck.DefaultPackages["+pkg+"]", path.Clean(target))
		}
	}
	dirs := make([]string, 0, len(listed))
	for dir := range listed {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if !holdsGoPackage(filepath.Join(root, filepath.FromSlash(dir))) {
			t.Errorf("%s names %q, which holds no Go package", strings.Join(listed[dir], ", "), dir)
		}
	}
}

// holdsGoPackage reports whether dir has a non-test .go file.
func holdsGoPackage(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
