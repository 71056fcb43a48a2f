package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// TestUsageErrors: every bad flag value is rejected up front with one
// "cmpsim: " line and exit 2, never a goroutine dump from deep inside
// the simulator.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown design", []string{"-design", "foo"}, `unknown design "foo"`},
		{"unknown workload", []string{"-workload", "MIX9"}, `unknown workload "MIX9"`},
		{"zero instr", []string{"-instr", "0"}, "zero measured instructions"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exited %d, want 2\nstderr: %s", code, stderr)
			}
			if stdout != "" {
				t.Errorf("usage error wrote to stdout: %q", stdout)
			}
			if !strings.HasPrefix(stderr, "cmpsim: ") || strings.Count(stderr, "\n") != 1 {
				t.Errorf("stderr is not one cmpsim: line: %q", stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not contain %q", stderr, tc.want)
			}
		})
	}
}

// TestTinyRun: a small simulation prints the per-core table and the L2
// distributions and exits 0.
func TestTinyRun(t *testing.T) {
	stdout, stderr, code := runCLI(t,
		"-design", "private", "-workload", "barnes", "-warmup", "2000", "-instr", "2000", "-baseline")
	if code != 0 {
		t.Fatalf("exited %d\nstderr: %s", code, stderr)
	}
	for _, want := range []string{"design   private", "workload barnes", "Per-core results",
		"L2 access distribution:", "weighted speedup over uniform-shared:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}
