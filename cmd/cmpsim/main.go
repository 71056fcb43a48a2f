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
	"os"
	"strings"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/experiments"
	"cmpnurapid/internal/stats"
	"cmpnurapid/internal/trace"
	"cmpnurapid/internal/workload"
)

var designs = []experiments.DesignName{
	experiments.UniformShared, experiments.NonUniform, experiments.Private,
	experiments.Ideal, experiments.NuRAPID, experiments.NuRAPIDCR, experiments.NuRAPIDISC,
	experiments.PrivateUpdate, experiments.DNUCA,
}

func workloadByName(name string, seed uint64) (cmpsim.Workload, bool) {
	for _, p := range workload.Multithreaded(seed) {
		if p.Name == name {
			return workload.New(p), true
		}
	}
	for i, m := range workload.Mixes(seed) {
		if m.Name() == name {
			return workload.Mixes(seed)[i], true
		}
	}
	return nil, false
}

func main() {
	var (
		design   = flag.String("design", "CMP-NuRAPID", "cache design")
		wl       = flag.String("workload", "oltp", "workload: oltp, apache, specjbb, ocean, barnes, MIX1..MIX4")
		instr    = flag.Uint64("instr", 2_000_000, "measured instructions per core")
		warmup   = flag.Int("warmup", 4_000_000, "warm-up instructions per core")
		seed     = flag.Uint64("seed", 42, "workload seed")
		baseline = flag.Bool("baseline", false, "also run uniform-shared and report speedup")
		traceIn  = flag.String("trace", "", "replay a recorded trace file instead of a named workload")
		list     = flag.Bool("list", false, "list designs and workloads")
	)
	flag.Parse()

	if *list {
		names := make([]string, len(designs))
		for i, d := range designs {
			names[i] = string(d)
		}
		fmt.Println("designs:  ", strings.Join(names, ", "))
		fmt.Println("workloads: oltp, apache, specjbb, ocean, barnes, MIX1, MIX2, MIX3, MIX4")
		return
	}

	var w cmpsim.Workload
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cmpsim:", err)
			os.Exit(1)
		}
		w, err = trace.Load(f, *traceIn)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "cmpsim:", err)
			os.Exit(1)
		}
		*wl = *traceIn
	} else {
		var ok bool
		w, ok = workloadByName(*wl, *seed)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (try -list)\n", *wl)
			os.Exit(1)
		}
	}
	rc := experiments.RunConfig{WarmupInstr: *warmup, Instructions: *instr, Seed: *seed}
	// A bad scale (-instr 0, -warmup -5) is a usage error: one line,
	// exit 2, no goroutine dump from Validate's panic.
	if f := experiments.CapturePanic("flags", func() { rc.Validate() }); f != nil {
		fmt.Fprintln(os.Stderr, "cmpsim:", strings.SplitN(f.Diagnostic, "\n", 2)[0])
		os.Exit(2)
	}
	res := experiments.Run(experiments.DesignName(*design), w, rc)

	fmt.Printf("design   %s\nworkload %s\n\n", res.Design, *wl)
	t := stats.NewTable("Per-core results", "Core", "Cycles", "Instructions", "IPC", "L1D miss", "L1I miss", "Write-throughs")
	for i, c := range res.Cores {
		l1d := pct(c.L1DMisses, c.L1DMisses+c.L1DHits)
		l1i := pct(c.L1IMisses, c.L1IMisses+c.L1IHits)
		t.Row(fmt.Sprintf("P%d", i), fmt.Sprint(c.Cycles), fmt.Sprint(c.Instructions),
			fmt.Sprintf("%.3f", c.IPC), l1d, l1i, fmt.Sprint(c.Writethroughs))
	}
	fmt.Println(t.String())
	fmt.Printf("makespan %d cycles, aggregate IPC %.3f\n\n", res.Cycles, res.IPC)

	s := res.L2
	fmt.Println("L2 access distribution:")
	fmt.Print(s.Accesses.String())
	fmt.Println("\nData-array distribution:")
	fmt.Print(s.DataArray.String())
	fmt.Printf("\navg L2 latency %.1f cycles, off-chip misses %d\n",
		float64(s.LatencySum)/float64(max(1, s.Accesses.Total())), s.OffChipMisses)
	if s.BusTransactions.Total() > 0 {
		fmt.Println("\nBus traffic:")
		fmt.Print(s.BusTransactions.String())
	}
	if s.Replications+s.PointerReturns+s.Promotions+s.Demotions > 0 {
		fmt.Printf("\nCR/CS activity: %d pointer returns, %d replications, %d promotions, %d demotions\n",
			s.PointerReturns, s.Replications, s.Promotions, s.Demotions)
	}
	if *baseline && *design != string(experiments.UniformShared) && *traceIn == "" {
		wb, _ := workloadByName(*wl, *seed)
		base := experiments.Run(experiments.UniformShared, wb, rc)
		fmt.Printf("\nweighted speedup over uniform-shared: %.3fx\n", cmpsim.Speedup(res, base))
	}
}

func pct(n, d uint64) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(d))
}

func max(a uint64, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
