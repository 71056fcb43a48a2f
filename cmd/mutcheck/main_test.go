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
	for _, want := range []string{"relswap", "offbyone", "boolnegate", "branchdel", "constret", "orderswap",
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
