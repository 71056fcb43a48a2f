// Command experiments regenerates the paper's evaluation tables and
// figures. Run with -exp all (default) or a comma-separated subset:
//
//	experiments -exp table1,fig5,fig10 -instr 3000000
//
// The requested experiments first declare every (design, workload)
// simulation they need; a bounded worker pool (-parallel, default one
// worker per CPU) runs those cells concurrently, then the tables are
// rendered in fixed order from the completed cache. Tables go to
// stdout; per-cell progress and timing go to stderr, so stdout is
// byte-identical at any -parallel level (see docs/PARALLEL.md).
//
// A failing simulation (cycle-ceiling abort, zero-work op, invariant
// violation) does not take down the run: the failed cells' experiments
// render as ERR lines, a failure report follows the tables, and the
// process exits 1. -failfast restores abort-on-first-failure; the
// -max-cycles ceiling bounds every simulation phase. Exit codes: 0
// success, 1 cell or render failures, 2 usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cmpnurapid/internal/experiments"
	"cmpnurapid/internal/memsys"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, streams, exit code) made
// explicit so the CLI tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := experiments.DefaultRunConfig()
	var (
		exps = fs.String("exp", "all", "comma-separated experiments, or all: "+
			strings.Join(experiments.ExperimentNames(), ", ")+
			" (ablations and sensitivity sweeps are opt-in, not part of all)")
		instr    = fs.Uint64("instr", def.Instructions, "measured instructions per core")
		warmup   = fs.Int("warmup", def.WarmupInstr, "warm-up instructions per core")
		seed     = fs.Uint64("seed", def.Seed, "workload seed")
		format   = fs.String("format", "text", "output format: text or csv")
		parallel = fs.Int("parallel", experiments.DefaultParallelism(),
			"max concurrent simulations (1 = sequential; output is identical either way)")
		quiet     = fs.Bool("quiet", false, "suppress per-cell progress lines on stderr")
		maxCycles = fs.Int64("max-cycles", 0,
			"hard clock ceiling per simulation phase in cycles (0 derives one from the instruction budget)")
		failFast = fs.Bool("failfast", false,
			"abort on the first failed simulation instead of running the remaining cells")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "csv" {
		fmt.Fprintf(stderr, "experiments: invalid -format %q (valid: text, csv)\n", *format)
		return 2
	}
	if *parallel < 1 {
		fmt.Fprintf(stderr, "experiments: -parallel must be at least 1, got %d\n", *parallel)
		return 2
	}
	if *maxCycles < 0 {
		fmt.Fprintf(stderr, "experiments: -max-cycles must be non-negative, got %d\n", *maxCycles)
		return 2
	}
	selected, err := experiments.Select(*exps)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}

	rc := experiments.RunConfig{
		WarmupInstr: *warmup, Instructions: *instr, Seed: *seed,
		MaxCycles: memsys.CyclesOf(int(*maxCycles)),
	}
	// Validate panics on a bad scale (-instr 0, -warmup -5); report it
	// like every other usage error instead of dumping a stack. Its
	// diagnostics already carry the "experiments: " prefix.
	if f := experiments.CapturePanic("flags", func() { rc.Validate() }); f != nil {
		fmt.Fprintln(stderr, firstLine(f.Diagnostic))
		return 2
	}

	eval := experiments.NewEval(rc)

	// Phase 1: plan and execute every simulation cell concurrently.
	// Failing cells become CellFailures; the rest keep running.
	cells := experiments.Plan(selected, eval)
	start := time.Now()
	var progress experiments.Progress
	if !*quiet {
		progress = func(done, total int, key string, elapsed time.Duration) {
			fmt.Fprintf(stderr, "[%d/%d] %s (%v)\n", done, total, key, elapsed.Round(time.Millisecond))
		}
	}
	failures := experiments.ExecuteCells(cells, *parallel, *failFast, progress)
	if !*quiet && len(cells) > 0 {
		fmt.Fprintf(stderr, "%d simulations in %v (-parallel %d)\n",
			len(cells), time.Since(start).Round(time.Millisecond), *parallel)
	}
	if *failFast && len(failures) > 0 {
		reportFailures(stdout, stderr, failures)
		return 1
	}

	// Phase 2: render from the warm cache in registry order. An
	// experiment whose cells are poisoned renders as an ERR line; the
	// healthy experiments still print in full.
	reported := map[string]bool{}
	for _, f := range failures {
		reported[f.Diagnostic] = true
	}
	for _, ex := range selected {
		t0 := time.Now()
		var rendered string
		f := experiments.CapturePanic(ex.Name, func() {
			switch {
			case ex.Table != nil:
				t := ex.Table(eval)
				if *format == "csv" {
					rendered = t.CSV()
				} else {
					rendered = t.String()
				}
			default:
				rendered = ex.Text(eval)
			}
		})
		if f != nil {
			fmt.Fprintf(stdout, "ERR %s: %s\n\n", ex.Name, firstLine(f.Diagnostic))
			// A render failure caused by an already-reported cell
			// failure carries the same diagnostic; only new ones add to
			// the report.
			if !reported[f.Diagnostic] {
				reported[f.Diagnostic] = true
				failures = append(failures, *f)
			}
		} else {
			fmt.Fprintln(stdout, rendered)
		}
		if !*quiet {
			fmt.Fprintf(stderr, "[%s rendered in %v]\n", ex.Name, time.Since(t0).Round(time.Millisecond))
		}
	}
	if len(failures) > 0 {
		reportFailures(stdout, stderr, failures)
		return 1
	}
	return 0
}

// reportFailures prints the failure report — one entry per failed cell
// with its full diagnostic — to stdout after the tables, and the
// captured stacks to stderr (they are debugging detail, not results).
func reportFailures(stdout, stderr io.Writer, failures []experiments.CellFailure) {
	fmt.Fprintf(stdout, "FAILURE REPORT: %d failed\n", len(failures))
	for _, f := range failures {
		fmt.Fprintf(stdout, "  %s: %s\n", f.Key, indentLines(f.Diagnostic))
		if f.Stack != "" {
			fmt.Fprintf(stderr, "--- stack for %s ---\n%s\n", f.Key, f.Stack)
		}
	}
}

// firstLine truncates a multi-line diagnostic for the inline ERR line.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// indentLines keeps a multi-line diagnostic aligned under its report
// entry.
func indentLines(s string) string {
	return strings.ReplaceAll(s, "\n", "\n    ")
}
