// Command cmpsim runs one cache design against one workload and prints
// detailed results: per-core IPC, the L2 access distribution (the
// paper's miss taxonomy), d-group behaviour, and bus traffic.
//
//	cmpsim -design CMP-NuRAPID -workload oltp -instr 3000000
//	cmpsim -design private -workload MIX3
//	cmpsim -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/experiments"
	"cmpnurapid/internal/stats"
	"cmpnurapid/internal/trace"
	"cmpnurapid/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, streams, exit code) made
// explicit so the CLI tests can drive it. Exit codes: 0 success, 1 an
// unreadable trace, 2 usage errors (each one "cmpsim: " line, no
// stack).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cmpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		design   = fs.String("design", "CMP-NuRAPID", "cache design")
		wl       = fs.String("workload", "oltp", "workload: oltp, apache, specjbb, ocean, barnes, MIX1..MIX4")
		instr    = fs.Uint64("instr", 2_000_000, "measured instructions per core")
		warmup   = fs.Int("warmup", 4_000_000, "warm-up instructions per core")
		seed     = fs.Uint64("seed", 42, "workload seed")
		baseline = fs.Bool("baseline", false, "also run uniform-shared on the named workload and report speedup (not with -trace)")
		traceIn  = fs.String("trace", "", "replay a recorded trace file instead of a named workload")
		list     = fs.Bool("list", false, "list designs and workloads")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	designs := experiments.DesignNames()
	if *list {
		names := make([]string, len(designs))
		for i, d := range designs {
			names[i] = string(d)
		}
		fmt.Fprintln(stdout, "designs:  ", strings.Join(names, ", "))
		fmt.Fprintln(stdout, "workloads: oltp, apache, specjbb, ocean, barnes, MIX1, MIX2, MIX3, MIX4")
		return 0
	}

	// Usage errors are rejected up front, before any simulation state
	// is built: an unknown design would otherwise panic deep inside
	// experiments.NewDesign.
	if !slices.Contains(designs, experiments.DesignName(*design)) {
		fmt.Fprintf(stderr, "cmpsim: unknown design %q (try -list)\n", *design)
		return 2
	}
	rc := experiments.RunConfig{WarmupInstr: *warmup, Instructions: *instr, Seed: *seed}
	// A bad scale (-instr 0, -warmup -5) is a usage error: one line,
	// exit 2, no goroutine dump from Validate's panic.
	if f := experiments.CapturePanic("flags", func() { rc.Validate() }); f != nil {
		fmt.Fprintln(stderr, "cmpsim:", strings.SplitN(f.Diagnostic, "\n", 2)[0])
		return 2
	}
	// The baseline replays the named workload on uniform-shared; a
	// trace has no generator to replay.
	if *baseline && *traceIn != "" {
		fmt.Fprintln(stderr, "cmpsim: -baseline needs a named -workload and cannot be combined with -trace")
		return 2
	}

	var w cmpsim.Workload
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fmt.Fprintln(stderr, "cmpsim:", err)
			return 1
		}
		w, err = trace.Load(f, *traceIn)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "cmpsim:", err)
			return 1
		}
		*wl = *traceIn
	} else {
		var ok bool
		w, ok = workload.ByName(*wl, *seed)
		if !ok {
			fmt.Fprintf(stderr, "cmpsim: unknown workload %q (try -list)\n", *wl)
			return 2
		}
	}
	res := experiments.Run(experiments.DesignName(*design), w, rc)

	fmt.Fprintf(stdout, "design   %s\nworkload %s\n\n", res.Design, *wl)
	t := stats.NewTable("Per-core results", "Core", "Cycles", "Instructions", "IPC", "L1D miss", "L1I miss", "Write-throughs")
	for i, c := range res.Cores {
		l1d := pct(c.L1DMisses, c.L1DMisses+c.L1DHits)
		l1i := pct(c.L1IMisses, c.L1IMisses+c.L1IHits)
		t.Row(fmt.Sprintf("P%d", i), fmt.Sprint(c.Cycles), fmt.Sprint(c.Instructions),
			fmt.Sprintf("%.3f", c.IPC), l1d, l1i, fmt.Sprint(c.Writethroughs))
	}
	fmt.Fprintln(stdout, t.String())
	fmt.Fprintf(stdout, "makespan %d cycles, aggregate IPC %.3f\n\n", res.Cycles, res.IPC)

	s := res.L2
	fmt.Fprintln(stdout, "L2 access distribution:")
	fmt.Fprint(stdout, s.Accesses.String())
	fmt.Fprintln(stdout, "\nData-array distribution:")
	fmt.Fprint(stdout, s.DataArray.String())
	fmt.Fprintf(stdout, "\navg L2 latency %.1f cycles, off-chip misses %d\n",
		float64(s.LatencySum)/float64(max(1, s.Accesses.Total())), s.OffChipMisses)
	if s.BusTransactions.Total() > 0 {
		fmt.Fprintln(stdout, "\nBus traffic:")
		fmt.Fprint(stdout, s.BusTransactions.String())
	}
	if s.Replications+s.PointerReturns+s.Promotions+s.Demotions > 0 {
		fmt.Fprintf(stdout, "\nCR/CS activity: %d pointer returns, %d replications, %d promotions, %d demotions\n",
			s.PointerReturns, s.Replications, s.Promotions, s.Demotions)
	}
	if *baseline && *design != string(experiments.UniformShared) {
		wb, _ := workload.ByName(*wl, *seed)
		base := experiments.Run(experiments.UniformShared, wb, rc)
		fmt.Fprintf(stdout, "\nweighted speedup over uniform-shared: %.3fx\n", cmpsim.Speedup(res, base))
	}
	return 0
}

func pct(n, d uint64) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(d))
}
