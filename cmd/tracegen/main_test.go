package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// TestRecordInspectRoundTrip: a recorded trace inspects back to the
// cores and op counts it was recorded with.
func TestRecordInspectRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mix.trace")
	stdout, stderr, code := runCLI(t, "-workload", "MIX2", "-ops", "300", "-o", path)
	if code != 0 {
		t.Fatalf("record exited %d\nstderr: %s", code, stderr)
	}
	if want := "recorded 300 ops x 4 cores of MIX2 into " + path + "\n"; stdout != want {
		t.Errorf("record stdout = %q, want %q", stdout, want)
	}

	stdout, stderr, code = runCLI(t, "-inspect", path)
	if code != 0 {
		t.Fatalf("inspect exited %d\nstderr: %s", code, stderr)
	}
	for _, want := range []string{path + ": 4 cores, 1200 ops (",
		"  core 0: 300 ops\n", "  core 3: 300 ops\n"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("inspect stdout missing %q:\n%s", want, stdout)
		}
	}
}

// TestUsageErrors: every bad invocation is rejected with one
// "tracegen: " line and exit 2, before any trace file is created.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown workload", []string{"-workload", "MIX9"}, `unknown workload "MIX9"`},
		{"negative ops", []string{"-ops", "-5"}, "-ops must be positive, got -5"},
		{"zero ops", []string{"-ops", "0"}, "-ops must be positive, got 0"},
		{"stray argument", []string{"-ops", "10", "oltp"}, `unexpected argument "oltp"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out.trace")
			stdout, stderr, code := runCLI(t, append(tc.args, "-o", path)...)
			if code != 2 {
				t.Fatalf("exited %d, want 2\nstderr: %s", code, stderr)
			}
			if stdout != "" {
				t.Errorf("usage error wrote to stdout: %q", stdout)
			}
			if !strings.HasPrefix(stderr, "tracegen: ") || strings.Count(stderr, "\n") != 1 {
				t.Errorf("stderr is not one tracegen: line: %q", stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not contain %q", stderr, tc.want)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("usage error created %s (stat: %v)", path, err)
			}
		})
	}
}

// TestFileErrors: a trace file that cannot be written or read exits 1
// with the error on stderr.
func TestFileErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "x.trace")
	for _, args := range [][]string{
		{"-ops", "10", "-o", missing},
		{"-inspect", missing},
	} {
		stdout, stderr, code := runCLI(t, args...)
		if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "tracegen: ") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 and a tracegen: error",
				args, code, stdout, stderr)
		}
	}
}

// TestInspectIgnoresRecordingFlags: -inspect reads only the trace, so
// recording flags it does not use (-ops, -workload) cannot make it a
// usage error.
func TestInspectIgnoresRecordingFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.trace")
	if _, stderr, code := runCLI(t, "-workload", "MIX1", "-ops", "5", "-o", path); code != 0 {
		t.Fatalf("record exited %d\nstderr: %s", code, stderr)
	}
	for _, extra := range [][]string{{"-ops", "0"}, {"-ops", "-5"}, {"-workload", "nosuch"}} {
		stdout, stderr, code := runCLI(t, append([]string{"-inspect", path}, extra...)...)
		if code != 0 || stderr != "" || !strings.HasPrefix(stdout, path+": 4 cores, 20 ops (") {
			t.Errorf("-inspect with %v: exit %d, stdout %q, stderr %q; want the summary and exit 0",
				extra, code, stdout, stderr)
		}
	}
}
