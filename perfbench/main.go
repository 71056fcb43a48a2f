// Command perfbench is the repository benchmark. It runs one named
// workload — a set of (design, workload) simulation cells scheduled
// through experiments.ExecuteCells — in repeated rounds for a fixed
// time, checks every cell's simulated results against a reference, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced run (--trace 1). The last line of standard output is one
// JSON object. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"

	"cmpnurapid/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: mt-commercial, mp-fig12 or sweep-quick")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 30, "how long the timed rounds may take, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	writeRef := fs.String("write-reference", "", "compute every workload's cell fingerprints at the default seed, write them to this file, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	stored, err := parseReference(referenceText)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	rc := wl.rc(*seed)
	specs, err := wl.cells(rc)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	workers := wl.workers
	if workers > len(specs) {
		workers = len(specs)
	}

	var cal calibration
	if *trace == 1 {
		cal = calibrate()
	}
	// One untimed cell first, so lazy runtime set-up and heap growth
	// land outside the timed rounds. A failure shows again in the rounds.
	experiments.CapturePanic(specs[0].key, func() { runCell(specs[0], rc, false) })

	budget := time.Duration(*seconds * float64(time.Second))
	rounds := measure(specs, rc, workers, *trace == 1, budget)
	peakRSS := peakRSSMB()

	// The reference is computed after timing, outside every round. At
	// the default seed the recorded reference is the one cells must
	// match, and the computed one must match it too.
	ref := referenceFingerprints(specs, rc)
	want := ref
	if *seed == defaultSeed {
		want = stored[wl.name]
	}
	check := checkRounds(rounds, specs, want)
	if *seed == defaultSeed {
		check.compareStored(want, ref, specs)
	}

	fmt.Fprintf(stdout, "workload %s: %d cells x %d rounds, %d worker(s), seed %d, warm-up %d + measured %d instructions per core\n",
		wl.name, len(specs), len(rounds), workers, *seed, rc.WarmupInstr, rc.Instructions)
	for i, r := range rounds {
		fmt.Fprintf(stdout, "round %d: traced=%v wall %.4f s cpu %.4f s\n", i, r.traced, r.wall.Seconds(), r.cpu.Seconds())
	}
	for _, msg := range check.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", msg)
	}
	fmt.Fprintf(stdout, "fail_frac = %.4f (%d of %d cells)\n",
		float64(check.failed)/float64(check.attempted), check.failed, check.attempted)

	res := result{Correct: check.ok(), Attempted: check.attempted, Failed: check.failed}
	if *trace == 0 {
		res.Metrics = endToEnd(rounds, peakRSS)
	} else {
		perLayer, rep, err := traced(rounds, cal, wl.name, *seed)
		if err != nil {
			res.Correct = false
			fmt.Fprintln(stdout, "CHECK FAILED:", err)
		}
		res.Metrics = perLayer
		fmt.Fprint(stdout, rep)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// measure runs timed rounds until the next one would overrun the
// budget. Untraced runs need one round; traced runs alternate an
// untraced and a traced round, so tracing overhead compares rounds
// that saw the same machine conditions.
func measure(specs []cellSpec, rc experiments.RunConfig, workers int, traced bool, budget time.Duration) []round {
	var rounds []round
	start := time.Now()
	for {
		step := time.Now()
		rounds = append(rounds, runRound(specs, rc, workers, false))
		if traced {
			rounds = append(rounds, runRound(specs, rc, workers, true))
		}
		elapsed := time.Since(start)
		if elapsed+time.Since(step) > budget {
			return rounds
		}
	}
}

// endToEnd reduces untraced rounds to the end-to-end metrics, each the
// median over rounds.
func endToEnd(rounds []round, peakRSS float64) map[string]metric {
	var wall, cpu, setup, rate, cellP50 []float64
	for _, r := range rounds {
		var instr uint64
		var su time.Duration
		var cells []float64
		for _, c := range r.cells {
			instr += c.siminstr
			su += c.setup
			cells = append(cells, c.total.Seconds())
		}
		wall = append(wall, r.wall.Seconds())
		cpu = append(cpu, r.cpu.Seconds())
		setup = append(setup, su.Seconds())
		rate = append(rate, float64(instr)/r.wall.Seconds())
		cellP50 = append(cellP50, median(cells))
	}
	return map[string]metric{
		"wall_s":         {median(wall), "s"},
		"cpu_s":          {median(cpu), "s"},
		"setup_s":        {median(setup), "s"},
		"siminstr_per_s": {median(rate), "1/s"},
		"cell_s_p50":     {median(cellP50), "s"},
		"peak_rss_mb":    {peakRSS, "MB"},
	}
}

// traced reduces a traced run to per-layer metrics (medians over its
// traced rounds) and renders the report for its median traced round.
// Every count must repeat exactly across traced rounds.
func traced(rounds []round, cal calibration, name string, seed uint64) (map[string]metric, string, error) {
	var untraced []float64
	var layers []*layerTimes
	for _, r := range rounds {
		if r.traced {
			layers = append(layers, accountRound(r, cal))
		} else {
			untraced = append(untraced, r.wall.Seconds())
		}
	}
	base := time.Duration(median(untraced) * float64(time.Second))
	values := map[string][]float64{}
	units := map[string]string{}
	for _, lt := range layers {
		for n, m := range lt.metrics(base) {
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
		}
	}
	var err error
	out := map[string]metric{}
	for n, vs := range values {
		if exactCount(n, units[n]) {
			for _, v := range vs {
				if v != vs[0] {
					err = fmt.Errorf("count %s differs between traced rounds: %v", n, vs)
				}
			}
		}
		out[n] = metric{Value: median(vs), Unit: units[n]}
	}

	sort.Slice(layers, func(i, j int) bool { return layers[i].wall < layers[j].wall })
	mid := layers[(len(layers)-1)/2]
	var b strings.Builder
	mid.writeReport(&b, fmt.Sprintf(
		"traced report: workload %s, seed %d, median of %d traced rounds; timer cost %.1f ns per wrapped call, %.1f ns bias per timed call, 1/%d calls timed",
		name, seed, len(layers), cal.callNs, cal.biasNs, sampleEvery), base)
	return out, b.String(), err
}

// exactCount reports whether a per-layer metric counts simulated work,
// so it must repeat exactly for a seed.
func exactCount(name, unit string) bool {
	return unit == "count" || unit == "count/step" || strings.HasSuffix(name, ".hit_frac")
}

// check accumulates the output checks of a run.
type check struct {
	attempted int
	failed    int
	problems  []string
}

func (c *check) ok() bool { return c.failed == 0 && len(c.problems) == 0 }

// checkRounds compares every cell of every round, traced or not, with
// the reference. A cell fails if it panicked or if its fingerprint
// differs.
func checkRounds(rounds []round, specs []cellSpec, ref map[string]string) *check {
	c := &check{}
	for ri, r := range rounds {
		for _, f := range r.failures {
			c.problems = append(c.problems, fmt.Sprintf("round %d: cell %s panicked: %s", ri, f.Key, f.Diagnostic))
		}
		for i, rec := range r.cells {
			c.attempted++
			want, haveRef := ref[specs[i].key]
			switch {
			case !rec.ok:
				c.failed++
			case !haveRef:
				c.failed++
				c.problems = append(c.problems, fmt.Sprintf("cell %s: no reference fingerprint", specs[i].key))
			case fingerprint(rec.results) != want:
				c.failed++
				c.problems = append(c.problems, fmt.Sprintf("round %d (traced=%v): cell %s fingerprint %s, reference %s",
					ri, r.traced, specs[i].key, fingerprint(rec.results), want))
			}
		}
	}
	return c
}

// compareStored checks the reference computed now through
// experiments.Eval against the one recorded in reference.txt.
func (c *check) compareStored(stored, ref map[string]string, specs []cellSpec) {
	if len(stored) != len(specs) {
		c.problems = append(c.problems, fmt.Sprintf("reference.txt has %d cells for this workload, want %d", len(stored), len(specs)))
	}
	for _, s := range specs {
		if stored[s.key] != ref[s.key] {
			c.problems = append(c.problems, fmt.Sprintf("cell %s: fingerprint %s, reference.txt %s", s.key, ref[s.key], stored[s.key]))
		}
	}
}

// writeReference records every workload's fingerprints at the default
// seed, computed through experiments.Eval.
func writeReference(path string) error {
	fps := map[string]map[string]string{}
	var order []string
	for _, wl := range benchWorkloads() {
		rc := wl.rc(defaultSeed)
		specs, err := wl.cells(rc)
		if err != nil {
			return err
		}
		ref := referenceFingerprints(specs, rc)
		if len(ref) != len(specs) {
			return fmt.Errorf("workload %s: %d of %d reference cells failed", wl.name, len(specs)-len(ref), len(specs))
		}
		fps[wl.name] = ref
		order = append(order, wl.name)
	}
	return os.WriteFile(path, []byte(formatReference(order, fps)), 0o644)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
