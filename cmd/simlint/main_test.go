package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdir switches the working directory for one test; simlint always
// analyzes the module containing the working directory.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// dirtyModule writes a throwaway module with one panicmsg violation
// (a panic in internal/ without the "pkg: " prefix) and returns its
// root.
func dirtyModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fix.example/m\n\ngo 1.22\n",
		"internal/widget/widget.go": `package widget

func Check(ok bool) {
	if !ok {
		panic("broken")
	}
}
`,
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

func TestRunCleanRepoBothFormats(t *testing.T) {
	for _, args := range [][]string{nil, {"-format", "json"}} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d, want 0\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
		}
		if stdout.String() != "" {
			t.Errorf("run(%v) on a clean repo printed:\n%s", args, stdout.String())
		}
	}
}

func TestTextFormatOnDirtyModule(t *testing.T) {
	chdir(t, dirtyModule(t))
	var stdout, stderr strings.Builder
	// invariantcov's coverage targets name this repo's packages, which
	// the fixture module lacks; it is not under test here.
	if code := run([]string{"-disable", "invariantcov"}, &stdout, &stderr); code != 1 {
		t.Fatalf("run() = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[panicmsg]") || !strings.Contains(out, "internal/widget/widget.go:5:") {
		t.Errorf("text diagnostic malformed:\n%s", out)
	}
}

func TestJSONFormatOnDirtyModule(t *testing.T) {
	chdir(t, dirtyModule(t))
	var stdout, stderr strings.Builder
	if code := run([]string{"-format", "json", "-disable", "invariantcov"}, &stdout, &stderr); code != 1 {
		t.Fatalf("run(-format json) = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("want one NDJSON line per diagnostic, got %d:\n%s", len(lines), stdout.String())
	}
	var d struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Pass    string `json:"pass"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &d); err != nil {
		t.Fatalf("line is not valid JSON: %v\n%s", err, lines[0])
	}
	if d.File != "internal/widget/widget.go" || d.Line != 5 || d.Col == 0 || d.Pass != "panicmsg" || d.Message == "" {
		t.Errorf("diagnostic fields: %+v", d)
	}
}

func TestRulesSelection(t *testing.T) {
	chdir(t, dirtyModule(t))
	// Selecting only the violated rule reports it; selecting only a
	// rule the module satisfies comes back clean.
	var stdout, stderr strings.Builder
	if code := run([]string{"-rules", "panicmsg"}, &stdout, &stderr); code != 1 {
		t.Fatalf("run(-rules panicmsg) = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "[panicmsg]") {
		t.Errorf("selected rule did not report:\n%s", stdout.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-rules", "floatcmp,unitcheck"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-rules floatcmp,unitcheck) = %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}

func TestRulesUnknownNameListsValid(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-rules", "unitchekc"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run(-rules unitchekc) = %d, want 2", code)
	}
	msg := stderr.String()
	for _, name := range []string{"unitchekc", "determinism", "panicmsg", "floatcmp",
		"invariantcov", "configvalidate", "enumswitch", "unitcheck", "hotpath"} {
		if !strings.Contains(msg, name) {
			t.Errorf("error message missing %q:\n%s", name, msg)
		}
	}
}

// hotpathDirtyModule writes a throwaway module with one hotpath
// violation (a make inside a hotpath:root tick) and returns its root.
func hotpathDirtyModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fix.example/m\n\ngo 1.22\n",
		"internal/sim/sim.go": `package sim

// hotpath:root
func Tick() []byte {
	return make([]byte, 64)
}
`,
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

func TestRulesHotpathBothFormats(t *testing.T) {
	chdir(t, hotpathDirtyModule(t))

	var stdout, stderr strings.Builder
	if code := run([]string{"-rules", "hotpath"}, &stdout, &stderr); code != 1 {
		t.Fatalf("run(-rules hotpath) = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[hotpath]") || !strings.Contains(out, "internal/sim/sim.go:5:") ||
		!strings.Contains(out, "hot path via sim.Tick") {
		t.Errorf("text diagnostic malformed:\n%s", out)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-rules", "hotpath", "-format", "json"}, &stdout, &stderr); code != 1 {
		t.Fatalf("run(-rules hotpath -format json) = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("want one NDJSON line, got %d:\n%s", len(lines), stdout.String())
	}
	var d jsonDiag
	if err := json.Unmarshal([]byte(lines[0]), &d); err != nil {
		t.Fatalf("line is not valid JSON: %v\n%s", err, lines[0])
	}
	if d.File != "internal/sim/sim.go" || d.Line != 5 || d.Pass != "hotpath" ||
		!strings.Contains(d.Message, "make allocates per call") {
		t.Errorf("NDJSON diagnostic fields: %+v", d)
	}
}

// TestListPrintsRuleTable pins the -list contract: exit 0 and one
// `name description` line per rule, in registration order — the same
// order the cmd doc comment, README, and docs/ANALYSIS.md use, so the
// three stay in sync with the code instead of drifting apart.
func TestListPrintsRuleTable(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-list) = %d", code)
	}
	want := []string{
		"determinism", "panicmsg", "floatcmp", "invariantcov",
		"configvalidate", "enumswitch", "unitcheck", "recovercheck", "hotpath",
		"synccheck",
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(want), stdout.String())
	}
	for i, line := range lines {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Errorf("-list line %d has no description: %q", i, line)
			continue
		}
		if fields[0] != want[i] {
			t.Errorf("-list line %d = %q, want rule %q (registration order)", i, fields[0], want[i])
		}
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-format", "xml"},
		{"-disable", "no-such-rule"},
		{"-rules", "no-such-rule"},
		{"-bogus"},
	}
	for _, args := range cases {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if stderr.String() == "" {
			t.Errorf("run(%v) printed no error", args)
		}
	}
}
