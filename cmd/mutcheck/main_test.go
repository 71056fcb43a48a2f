package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListPrintsOperatorsAndPackages(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"relswap", "offbyone", "boolnegate", "branchdel",
		"internal/cache", "internal/cmpsim", "./internal/l2"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-write", "a.json", "-diff", "b.json"}, // mutually exclusive
		{"-cap", "0"},                           // quick tier needs a positive cap
		{"-cap", "-3"},
		{"-pkgs", "internal/nosuch"}, // unknown package
		{"-badflag"},
	}
	for _, args := range cases {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

// TestPkgsWithDiffIsRefused: the committed baseline covers every hot
// package, so a -pkgs run would report the rest as missing; the
// combination is a usage error before any file is read.
func TestPkgsWithDiffIsRefused(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-pkgs", "internal/cache", "-diff", "no_such_file.json"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit = %d, want 2 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-pkgs and -diff are mutually exclusive") {
		t.Errorf("stderr does not name the refused combination: %s", stderr.String())
	}
}

func TestDiffAgainstMissingBaselineFailsFast(t *testing.T) {
	// The baseline is read before the campaign so a bad path fails
	// in milliseconds, not after minutes of mutant runs.
	var stdout, stderr strings.Builder
	if code := run([]string{"-diff", "no_such_file.json"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit = %d, want 2 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "no_such_file.json") {
		t.Errorf("stderr: %s", stderr.String())
	}
}

// TestAbsoluteAllowPathIsReadAsGiven: an absolute -allow path is read
// as given, not joined onto the module root, so a reason-less entry
// in it is a parse error (exit 2) before the baseline is even opened.
func TestAbsoluteAllowPathIsReadAsGiven(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "allow")
	if err := os.WriteFile(allow, []byte("internal/cache/cache.go:1:1:relswap mutcheck:survives\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-allow", allow, "-diff", "no_such_file.json"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "without a reason") {
		t.Errorf("stderr does not report the allowlist parse error: %s", stderr.String())
	}
}

// TestSetupErrorsPrefixedOnce: errors from the mutcheck package already
// carry "mutcheck: ", so the CLI must not prefix them again — on the
// allowlist path and on the baseline-report path alike.
func TestSetupErrorsPrefixedOnce(t *testing.T) {
	dir := t.TempDir()
	allow := filepath.Join(dir, "allow")
	if err := os.WriteFile(allow, []byte("internal/bus/bus.go:New:relswap:1 no marker here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(dir, "report.json")
	if err := os.WriteFile(report, []byte(`{"format": 9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-pkgs", "internal/bus", "-allow", allow}, "mutcheck: allowlist line 1: missing"},
		{[]string{"-diff", report}, "mutcheck: unsupported report format 9"},
	} {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", tc.args, code, stderr.String())
		}
		if got := stderr.String(); !strings.HasPrefix(got, tc.want) || strings.Count(got, "mutcheck: ") != 1 || strings.Count(got, "\n") != 1 {
			t.Errorf("run(%v) stderr = %q, want one line starting %q", tc.args, got, tc.want)
		}
	}
}
