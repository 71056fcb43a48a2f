// Command tracegen records a workload's memory-reference streams into
// the binary trace format, or inspects an existing trace.
//
//	tracegen -workload oltp -ops 100000 -o oltp.trace
//	tracegen -inspect oltp.trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/topo"
	"cmpnurapid/internal/trace"
	"cmpnurapid/internal/workload"
)

func pick(name string, seed uint64) (cmpsim.Workload, bool) {
	for _, p := range workload.Multithreaded(seed) {
		if p.Name == name {
			return workload.New(p), true
		}
	}
	for _, m := range workload.Mixes(seed) {
		if m.Name() == name {
			return m, true
		}
	}
	return nil, false
}

func main() {
	var (
		wl      = flag.String("workload", "oltp", "workload: oltp, apache, specjbb, ocean, barnes, MIX1..MIX4")
		ops     = flag.Int("ops", 100_000, "ops per core to record")
		out     = flag.String("o", "", "output file (default <workload>.trace)")
		seed    = flag.Uint64("seed", 42, "workload seed")
		inspect = flag.String("inspect", "", "print a summary of an existing trace instead of recording")
	)
	flag.Parse()

	if *inspect != "" {
		if err := inspectTrace(*inspect); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		return
	}

	src, ok := pick(*wl, *seed)
	if !ok {
		fmt.Fprintf(os.Stderr, "tracegen: unknown workload %q\n", *wl)
		os.Exit(1)
	}
	path := *out
	if path == "" {
		path = *wl + ".trace"
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := trace.Record(f, src, topo.NumCores, *ops); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	fmt.Printf("recorded %d ops x %d cores of %s into %s\n", *ops, topo.NumCores, *wl, path)
}

func inspectTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	var total, writes, instrs, nomem uint64
	perCore := make([]uint64, r.Cores())
	for {
		core, op, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		total++
		perCore[core]++
		switch {
		case op.NoMem:
			nomem++
		case op.Write:
			writes++
		case op.Instr:
			instrs++
		}
	}
	fmt.Printf("%s: %d cores, %d ops (%d writes, %d ifetches, %d compute-only)\n",
		path, r.Cores(), total, writes, instrs, nomem)
	for c, n := range perCore {
		fmt.Printf("  core %d: %d ops\n", c, n)
	}
	return nil
}
