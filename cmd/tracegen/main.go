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

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, streams, exit code) made
// explicit so the CLI tests can drive it. Exit codes: 0 success, 1 an
// unreadable or unwritable trace file, 2 usage errors (each one
// "tracegen: " line).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl      = fs.String("workload", "oltp", "workload: oltp, apache, specjbb, ocean, barnes, MIX1..MIX4")
		ops     = fs.Int("ops", 100_000, "ops per core to record")
		out     = fs.String("o", "", "output file (default <workload>.trace)")
		seed    = fs.Uint64("seed", 42, "workload seed")
		inspect = fs.String("inspect", "", "print a summary of an existing trace instead of recording")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "tracegen: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	// Inspecting reads only the trace: the recording flags do not apply.
	if *inspect != "" {
		if err := inspectTrace(stdout, *inspect); err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
			return 1
		}
		return 0
	}
	if *ops <= 0 {
		return usage("-ops must be positive, got %d", *ops)
	}
	src, ok := workload.ByName(*wl, *seed)
	if !ok {
		return usage("unknown workload %q", *wl)
	}

	path := *out
	if path == "" {
		path = *wl + ".trace"
	}
	if err := record(path, src, *ops); err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	fmt.Fprintf(stdout, "recorded %d ops x %d cores of %s into %s\n", *ops, topo.NumCores, *wl, path)
	return 0
}

// record writes opsPerCore ops of every core of src to a new file at
// path. A failed Close is an error too: it can be the first report of
// a failed write.
func record(path string, src cmpsim.Workload, opsPerCore int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = trace.Record(f, src, opsPerCore)
	return errors.Join(err, f.Close())
}

func inspectTrace(stdout io.Writer, path string) error {
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
	perCore := make([]uint64, topo.NumCores)
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
	fmt.Fprintf(stdout, "%s: %d cores, %d ops (%d writes, %d ifetches, %d compute-only)\n",
		path, topo.NumCores, total, writes, instrs, nomem)
	for c, n := range perCore {
		fmt.Fprintf(stdout, "  core %d: %d ops\n", c, n)
	}
	return nil
}
