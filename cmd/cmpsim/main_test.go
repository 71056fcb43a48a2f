package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmpnurapid/internal/trace"
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
		{"baseline with trace", []string{"-trace", "run.trace", "-baseline"}, "cannot be combined with -trace"},
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

// TestTraceOfOtherCoreCount: a trace recorded for a machine of another
// size is refused with one "cmpsim: trace: " line and exit 1, before
// any simulation runs.
func TestTraceOfOtherCoreCount(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint16(append([]byte{}, trace.Magic[:]...), trace.Version)
	path := filepath.Join(t.TempDir(), "two.trace")
	if err := os.WriteFile(path, binary.LittleEndian.AppendUint16(hdr, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runCLI(t, "-trace", path, "-warmup", "100", "-instr", "100")
	if code != 1 || stdout != "" {
		t.Fatalf("exit %d, stdout %q; want exit 1 and no output", code, stdout)
	}
	if !strings.HasPrefix(stderr, "cmpsim: trace: ") || strings.Count(stderr, "\n") != 1 {
		t.Errorf("stderr is not one cmpsim: trace: line: %q", stderr)
	}
}

// TestOptInGolden pins the full stdout of the two opt-in designs, the
// update-protocol private caches and CMP-DNUCA, on a commercial and a
// multiprogrammed workload: per-core cycles, miss categories and bus
// traffic, byte for byte. docs/golden/tiny_optin.golden only carries
// their speedups to three decimals.
func TestOptInGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six simulations; skipped under -short (race gate)")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "docs", "golden", "tiny_cmpsim_optin.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, design := range []string{"private-update", "non-uniform-shared-dynamic"} {
		for _, w := range []string{"oltp", "apache", "MIX1"} {
			stdout, stderr, code := runCLI(t, "-design", design, "-workload", w,
				"-warmup", "300000", "-instr", "300000")
			if code != 0 {
				t.Fatalf("%s on %s exited %d\nstderr: %s", design, w, code, stderr)
			}
			got.WriteString(stdout)
		}
	}
	if got.String() != string(want) {
		t.Errorf("opt-in designs' output differs from docs/golden/tiny_cmpsim_optin.golden:\n%s", got.String())
	}
}
