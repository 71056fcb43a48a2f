package simlint

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// writeFixture materializes a synthetic module in a temp dir. A go.mod
// for module fix.example/m is supplied unless the fixture brings its
// own.
func writeFixture(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if _, ok := files["go.mod"]; !ok {
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fix.example/m\n\ngo 1.22\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// lintFixture loads a synthetic module and runs the given analyzers.
func lintFixture(t *testing.T, files map[string]string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	prog, err := Load(writeFixture(t, files))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return prog.Run(analyzers)
}

// expectDiags asserts that the diagnostics contain exactly the given
// message substrings, in positional order.
func expectDiags(t *testing.T, diags []Diagnostic, want ...string) {
	t.Helper()
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(want), formatDiags(diags))
	}
	for i, w := range want {
		if !strings.Contains(diags[i].Message, w) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, diags[i].Message, w)
		}
	}
}

func formatDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

func TestLoadBasics(t *testing.T) {
	prog, err := Load(writeFixture(t, map[string]string{
		"a.go":                    "package m\n\nfunc A() int { return 1 }\n",
		"internal/core/b.go":      "package core\n\nimport \"fix.example/m\"\n\nfunc B() int { return m.A() }\n",
		"internal/core/b_test.go": "package core\n\nimport \"testing\"\n\nfunc TestB(t *testing.T) { _ = B() }\n",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if prog.ModulePath != "fix.example/m" {
		t.Errorf("module path = %q", prog.ModulePath)
	}
	if len(prog.Packages) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(prog.Packages))
	}
	core := prog.ByRel("internal/core")
	if core == nil || core.Name != "core" || core.Path != "fix.example/m/internal/core" {
		t.Fatalf("ByRel(internal/core) = %+v", core)
	}
	if len(core.Files) != 1 || len(core.TestFiles) != 1 {
		t.Errorf("core has %d files / %d test files, want 1/1", len(core.Files), len(core.TestFiles))
	}
	if !core.UnderRel("internal") || core.UnderRel("cmd") {
		t.Error("UnderRel misclassifies internal/core")
	}
}

// TestLoadHonorsBuildConstraints: a file gated behind a custom build
// tag (the seeded-mutant pattern: a tag-switched constant) is
// excluded from the default build and must be excluded from the load
// too — otherwise the loader type-checks both declarations of the
// tag-switched symbol and fails on a phantom redeclaration.
func TestLoadHonorsBuildConstraints(t *testing.T) {
	prog, err := Load(writeFixture(t, map[string]string{
		"internal/x/x.go":        "package x\n\nfunc X() bool { return mutant }\n",
		"internal/x/real.go":     "//go:build !somemutant\n\npackage x\n\nconst mutant = false\n",
		"internal/x/mutant.go":   "//go:build somemutant\n\npackage x\n\nconst mutant = true\n",
		"internal/x/hostos.go":   "//go:build " + runtime.GOOS + "\n\npackage x\n\nconst onHost = true\n",
		"internal/x/otheros.go":  "//go:build !" + runtime.GOOS + "\n\npackage x\n\nconst onHost = false\n",
		"internal/x/use_host.go": "package x\n\nfunc Host() bool { return onHost }\n",
	}))
	if err != nil {
		t.Fatal(err)
	}
	pkg := prog.ByRel("internal/x")
	if pkg == nil {
		t.Fatal("package not loaded")
	}
	if len(pkg.Files) != 4 {
		t.Errorf("loaded %d files, want 4 (mutant.go and otheros.go excluded)", len(pkg.Files))
	}
}

// TestLoadMatchesToolchainFileFilter: the loader keeps exactly the
// files `go build` compiles. A release tag (go1.21) is satisfied by
// any current toolchain, and a GOOS file-name suffix other than the
// host's excludes the file even without a //go:build line.
func TestLoadMatchesToolchainFileFilter(t *testing.T) {
	otherOS := "windows"
	if runtime.GOOS == otherOS {
		otherOS = "plan9"
	}
	prog, err := Load(writeFixture(t, map[string]string{
		"internal/x/a.go":                 "package x\n\nfunc A() int { return B }\n",
		"internal/x/release.go":           "//go:build go1.21\n\npackage x\n\nconst B = 1\n",
		"internal/x/x_" + otherOS + ".go": "package x\n\nconst A = 2\n",
	}))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range prog.ByRel("internal/x").Files {
		names = append(names, filepath.Base(prog.Fset.Position(f.Package).Filename))
	}
	sort.Strings(names)
	if want := []string{"a.go", "release.go"}; !reflect.DeepEqual(names, want) {
		t.Errorf("loaded %v, want %v", names, want)
	}
}

// TestLoadParallel exercises loadMu under the race gate: concurrent
// loads of distinct modules share the process-wide FileSet and stdlib
// importer, and must serialize on loadMu without corrupting either —
// each caller still gets its own module's packages back. It is the
// loader's concurrency check: run it under `go test -race -short`.
func TestLoadParallel(t *testing.T) {
	dirs := []string{
		writeFixture(t, map[string]string{
			"go.mod": "module fix.example/para\n\ngo 1.22\n",
			"a.go":   "package para\n\nfunc A() int { return 1 }\n",
		}),
		writeFixture(t, map[string]string{
			"go.mod":            "module fix.example/parb\n\ngo 1.22\n",
			"internal/x/x.go":   "package x\n\nimport \"sync\"\n\nvar mu sync.Mutex\n\nfunc X() { mu.Lock(); defer mu.Unlock() }\n",
			"internal/y/y.go":   "package y\n\nfunc Y() string { return \"y\" }\n",
			"internal/y/doc.go": "// Package y exists to give the load a second file.\npackage y\n",
		}),
	}
	wantPkgs := []int{1, 2}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		which := i % len(dirs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog, err := Load(dirs[which])
			if err != nil {
				t.Errorf("parallel Load(%s): %v", dirs[which], err)
				return
			}
			if len(prog.Packages) != wantPkgs[which] {
				t.Errorf("parallel Load(%s) got %d packages, want %d", dirs[which], len(prog.Packages), wantPkgs[which])
			}
		}()
	}
	wg.Wait()
}

// TestLoadRejectsTypeErrors: a tree the compiler rejects fails the
// load with the first type error, so no rule ever sees untyped syntax.
// The mixed-unit cases are the arithmetic unitcheck leaves to the
// compiler: a Span plus a Picos, and a Span plus a raw int64.
func TestLoadRejectsTypeErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  string
	}{
		{"undefined name", map[string]string{
			"internal/x/x.go": "package x\n\nfunc X() int { return undefinedName }\n",
		}, "undefined: undefinedName"},
		{"cross-unit arithmetic", map[string]string{
			"units/units.go":      unitsFixture,
			"internal/sim/sim.go": "package sim\n\nimport \"fix.example/m/units\"\n\nfunc mix(a units.Span, b units.Picos) {\n\t_ = a + b\n}\n",
		}, "mismatched types units.Span and units.Picos"},
		{"unit with raw value", map[string]string{
			"units/units.go":      unitsFixture,
			"internal/sim/sim.go": "package sim\n\nimport \"fix.example/m/units\"\n\nfunc pad(a units.Span, n int64) {\n\t_ = a + n\n}\n",
		}, "mismatched types units.Span and int64"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Load(writeFixture(t, tc.files))
			if err == nil {
				t.Fatalf("Load accepted an ill-typed tree (%d packages)", len(prog.Packages))
			}
			if !strings.HasPrefix(err.Error(), "simlint: ") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Load error = %q, want the simlint: prefix and %q", err, tc.want)
			}
		})
	}
}

func TestRunSortsDiagnosticsByPosition(t *testing.T) {
	diags := lintFixture(t, map[string]string{
		"internal/a/a.go": "package a\n\nfunc A() { panic(\"x\") }\n\nfunc B() { panic(\"y\") }\n",
	}, NewPanicMsg())
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2", len(diags))
	}
	if diags[0].Pos.Line >= diags[1].Pos.Line {
		t.Errorf("diagnostics not sorted: line %d before line %d", diags[0].Pos.Line, diags[1].Pos.Line)
	}
	if diags[0].Rule != "panicmsg" {
		t.Errorf("rule = %q, want panicmsg", diags[0].Rule)
	}
}

func TestDefaultAnalyzersComplete(t *testing.T) {
	want := map[string]bool{
		"determinism": true, "panicmsg": true,
		"invariantcov": true, "enumswitch": true,
		"unitcheck": true, "recovercheck": true, "hotpath": true,
	}
	for _, a := range DefaultAnalyzers() {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		delete(want, a.Name)
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
	}
	for name := range want {
		t.Errorf("missing analyzer %q", name)
	}
}
