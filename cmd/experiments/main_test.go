package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmpnurapid/internal/experiments"
)

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// TestUnknownExperimentExitsNonZero covers the bug this PR fixes: a
// typo like -exp fig13 used to print nothing and exit 0.
func TestUnknownExperimentExitsNonZero(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-exp", "fig13")
	if code == 0 {
		t.Fatal("-exp fig13 exited 0")
	}
	if stdout != "" {
		t.Errorf("unexpected stdout: %q", stdout)
	}
	if !strings.Contains(stderr, "fig13") {
		t.Errorf("stderr does not name the unknown experiment: %q", stderr)
	}
	for _, want := range []string{"fig5", "table1", "abl-promotion"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr does not list valid name %s: %q", want, stderr)
		}
	}
}

// TestEmptySelectionExitsNonZero: strings.Split("", ",") returns [""],
// so the old len(want)==0 guard was dead code and -exp "" fell through
// silently.
func TestEmptySelectionExitsNonZero(t *testing.T) {
	for _, spec := range []string{"", " ", ","} {
		_, stderr, code := runCLI(t, "-exp", spec)
		if code == 0 {
			t.Errorf("-exp %q exited 0", spec)
		}
		if !strings.Contains(stderr, "valid names") {
			t.Errorf("-exp %q: stderr does not list valid names: %q", spec, stderr)
		}
	}
}

// TestInvalidFormatRejected: -format used to accept any string and
// silently fall back to text.
func TestInvalidFormatRejected(t *testing.T) {
	_, stderr, code := runCLI(t, "-format", "yaml", "-exp", "table1")
	if code == 0 {
		t.Fatal("-format yaml exited 0")
	}
	if !strings.Contains(stderr, "yaml") || !strings.Contains(stderr, "csv") {
		t.Errorf("stderr does not explain valid formats: %q", stderr)
	}
}

func TestInvalidParallelRejected(t *testing.T) {
	_, stderr, code := runCLI(t, "-parallel", "0", "-exp", "table1")
	if code == 0 {
		t.Fatal("-parallel 0 exited 0")
	}
	if !strings.Contains(stderr, "parallel") {
		t.Errorf("stderr does not mention -parallel: %q", stderr)
	}
}

// TestParallelOutputMatchesSequential is the scheduler's end-to-end
// determinism contract at the CLI surface: the same selection at
// -parallel 1 and -parallel 8 must write byte-identical stdout. Runs
// at tiny scale so the race-short gate exercises the concurrent path.
func TestParallelOutputMatchesSequential(t *testing.T) {
	args := []string{"-exp", "table1,table3,fig7", "-warmup", "30000", "-instr", "30000", "-quiet"}
	seqOut, _, seqCode := runCLI(t, append(args, "-parallel", "1")...)
	parOut, _, parCode := runCLI(t, append(args, "-parallel", "8")...)
	if seqCode != 0 || parCode != 0 {
		t.Fatalf("exit codes: sequential %d, parallel %d", seqCode, parCode)
	}
	if seqOut != parOut {
		t.Errorf("parallel stdout differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqOut, parOut)
	}
	if !strings.Contains(seqOut, "Figure 7") || !strings.Contains(seqOut, "Table 3") {
		t.Errorf("selection did not render the requested tables:\n%s", seqOut)
	}
}

// TestGoldens is the byte-level output contract (docs/PARALLEL.md):
// the quick Table 1 + Figure 5 selection must equal its golden at
// -parallel 1, 4 and 8, the opt-in ablations and sweeps must equal
// theirs at -parallel 1 and 4, and the whole -exp all selection, which
// has no golden, must render the same bytes at -parallel 1 and 4.
// Skipped under -short: TestSchedulerEquivalence and
// TestParallelOutputMatchesSequential cover the worker-count contract
// under the race gate.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs -exp all and the golden selections; skipped under -short (race gate)")
	}
	const optin = "abl-promotion,abl-tags,abl-replication,abl-optimizations,abl-cmigration," +
		"abl-update,abl-dnuca,bandwidth,capacity,sens-size,sens-seed"
	cases := []struct {
		name     string
		golden   string // under docs/golden; "" means the first run is the reference
		args     []string
		parallel []string
	}{
		{"quick", "quick_table1_fig5.golden",
			[]string{"-exp", "table1,fig5", "-warmup", "200000", "-instr", "200000"}, []string{"1", "4", "8"}},
		{"optin", "tiny_optin.golden",
			[]string{"-exp", optin, "-warmup", "50000", "-instr", "50000"}, []string{"1", "4"}},
		{"all", "",
			[]string{"-exp", "all", "-warmup", "50000", "-instr", "50000"}, []string{"1", "4"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want, ref string
			if tc.golden != "" {
				ref = filepath.Join("..", "..", "docs", "golden", tc.golden)
				b, err := os.ReadFile(ref)
				if err != nil {
					t.Fatal(err)
				}
				want = string(b)
			}
			for _, p := range tc.parallel {
				stdout, stderr, code := runCLI(t, append([]string{"-quiet", "-parallel", p}, tc.args...)...)
				if code != 0 {
					t.Fatalf("-parallel %s exited %d\nstderr: %s", p, code, stderr)
				}
				if ref == "" {
					want, ref = stdout, "-parallel "+p
					continue
				}
				if stdout != want {
					t.Errorf("-parallel %s: stdout differs from %s at %s", p, ref, firstDiff(want, stdout))
				}
			}
		})
	}
}

// TestFullEvaluation: the whole evaluation at paper scale must print
// docs/full_evaluation.txt byte for byte. It takes about 30 s of wall
// time (52 s CPU) on a 2-vCPU VM, so it only runs when explicitly
// requested:
//
//	CMPNURAPID_FULL=1 go test -run TestFullEvaluation -timeout 30m ./cmd/experiments
func TestFullEvaluation(t *testing.T) {
	if os.Getenv("CMPNURAPID_FULL") == "" {
		t.Skip("set CMPNURAPID_FULL=1 to run the paper-scale evaluation against docs/full_evaluation.txt")
	}
	ref := filepath.Join("..", "..", "docs", "full_evaluation.txt")
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runCLI(t, "-exp", "all", "-instr", "3000000", "-warmup", "5000000", "-seed", "42")
	if code != 0 {
		t.Fatalf("exited %d\nstderr: %s", code, stderr)
	}
	if stdout != string(want) {
		t.Errorf("stdout differs from %s at %s", ref, firstDiff(string(want), stdout))
	}
}

// firstDiff names the first line at which got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n want %q\n  got %q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("line %d: want %d lines, got %d", min(len(w), len(g))+1, len(w), len(g))
}

// TestProgressOnStderr: cell progress and render timings go to stderr,
// never stdout (stdout must stay byte-identical across -parallel).
func TestProgressOnStderr(t *testing.T) {
	stdout, stderr, code := runCLI(t,
		"-exp", "fig7", "-warmup", "20000", "-instr", "20000", "-parallel", "4")
	if code != 0 {
		t.Fatalf("exit code %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "[1/") || !strings.Contains(stderr, "rendered in") {
		t.Errorf("stderr missing progress lines: %q", stderr)
	}
	if strings.Contains(stdout, "rendered in") || strings.Contains(stdout, "[1/") {
		t.Error("progress leaked onto stdout")
	}
}

// TestCSVFormat: -format csv renders tables as CSV on stdout.
func TestCSVFormat(t *testing.T) {
	stdout, _, code := runCLI(t, "-exp", "table1", "-format", "csv", "-quiet")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(stdout, ",") || !strings.Contains(stdout, "Latency") {
		t.Errorf("csv output suspicious:\n%s", stdout)
	}
}

// TestNegativeMaxCyclesIsUsageError: flag validation failures are usage
// errors (exit 2), distinct from cell failures (exit 1). Each prints one
// line naming the problem — RunConfig.Validate's panic included, which
// must not escape as a goroutine dump.
func TestNegativeMaxCyclesIsUsageError(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative max-cycles", []string{"-max-cycles", "-1"}, "max-cycles"},
		{"zero instr", []string{"-instr", "0"}, "zero measured instructions"},
		{"negative warmup", []string{"-warmup", "-5"}, "negative warm-up"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, append(tc.args, "-exp", "table1")...)
			if code != 2 {
				t.Fatalf("exited %d, want 2\nstderr: %s", code, stderr)
			}
			if stdout != "" {
				t.Errorf("usage error wrote to stdout: %q", stdout)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr %q does not contain %q", stderr, tc.want)
			}
			if !strings.HasPrefix(stderr, "experiments: ") || strings.Count(stderr, "\n") != 1 {
				t.Errorf("stderr is not one experiments: line: %q", stderr)
			}
			if strings.Contains(stderr, "goroutine") {
				t.Errorf("usage error dumped a stack: %q", stderr)
			}
		})
	}
}

// TestCellFailureStillRendersOthers is the graceful-degradation
// contract: a tiny -max-cycles ceiling fails every fig7 simulation,
// but table1 (a static table with no cells) must still render, the
// failed experiment must show an ERR line plus a failure report on
// stdout, the stacks must land on stderr, and the exit code must be 1.
func TestCellFailureStillRendersOthers(t *testing.T) {
	stdout, stderr, code := runCLI(t,
		"-exp", "table1,fig7", "-warmup", "500", "-instr", "500",
		"-max-cycles", "500", "-quiet")
	if code != 1 {
		t.Fatalf("run with failing cells exited %d, want 1", code)
	}
	if !strings.Contains(stdout, "Table 1") {
		t.Errorf("healthy table1 did not render:\n%s", stdout)
	}
	if !strings.Contains(stdout, "ERR fig7:") {
		t.Errorf("failed experiment missing its ERR line:\n%s", stdout)
	}
	if strings.Contains(stdout, "Figure 7") {
		t.Error("failed fig7 rendered a table anyway")
	}
	if !strings.Contains(stdout, "FAILURE REPORT:") ||
		!strings.Contains(stdout, "cmpsim: cycle limit exceeded") {
		t.Errorf("failure report missing or unstructured:\n%s", stdout)
	}
	if !strings.Contains(stdout, "explicit MaxCycles") {
		t.Errorf("diagnostic does not attribute the explicit ceiling:\n%s", stdout)
	}
	if !strings.Contains(stderr, "--- stack for ") ||
		!strings.Contains(stderr, "cmpsim") {
		t.Errorf("stacks missing from stderr:\n%s", stderr)
	}
}

// TestFailFastAbortsBeforeRendering: -failfast restores the old
// abort-on-first-failure behaviour — no tables render at all.
func TestFailFastAbortsBeforeRendering(t *testing.T) {
	stdout, _, code := runCLI(t,
		"-exp", "table1,fig7", "-warmup", "500", "-instr", "500",
		"-max-cycles", "500", "-failfast", "-quiet")
	if code != 1 {
		t.Fatalf("failfast run exited %d, want 1", code)
	}
	if strings.Contains(stdout, "Table 1") {
		t.Errorf("failfast rendered tables after a failure:\n%s", stdout)
	}
	if !strings.Contains(stdout, "FAILURE REPORT:") {
		t.Errorf("failfast run missing failure report:\n%s", stdout)
	}
}

// TestMaxCyclesHeadroomIsHarmless: a generous explicit ceiling leaves
// a healthy run untouched — same bytes as no ceiling at all.
func TestMaxCyclesHeadroomIsHarmless(t *testing.T) {
	args := []string{"-exp", "table1", "-quiet"}
	plain, _, c1 := runCLI(t, args...)
	capped, _, c2 := runCLI(t, append(args, "-max-cycles", "1000000000")...)
	if c1 != 0 || c2 != 0 {
		t.Fatalf("exit codes %d, %d", c1, c2)
	}
	if plain != capped {
		t.Error("a non-binding -max-cycles changed the output")
	}
}

// TestMaxCyclesBindsEveryCell: -max-cycles reaches every simulation of
// every experiment, not just the figures' design cells. A ceiling far
// below what the warm-up needs must fail each experiment's cells, and
// the failure report must name every cell the experiment planned.
func TestMaxCyclesBindsEveryCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered experiment; skipped under -short (race gate)")
	}
	rc := experiments.RunConfig{WarmupInstr: 500, Instructions: 500, Seed: 42, MaxCycles: 500}
	for _, ex := range experiments.Experiments() {
		if ex.Cells == nil {
			continue
		}
		t.Run(ex.Name, func(t *testing.T) {
			stdout, _, code := runCLI(t, "-exp", ex.Name,
				"-warmup", "500", "-instr", "500", "-max-cycles", "500", "-quiet")
			if code != 1 {
				t.Fatalf("exited %d, want 1", code)
			}
			_, report, ok := strings.Cut(stdout, "FAILURE REPORT:")
			if !ok {
				t.Fatalf("no failure report:\n%s", stdout)
			}
			for _, c := range experiments.Plan([]experiments.Experiment{ex}, experiments.NewEval(rc)) {
				if !strings.Contains(report, "\n  "+c.Key+": ") {
					t.Errorf("failure report does not name planned cell %s:\n%s", c.Key, report)
				}
			}
		})
	}
}
