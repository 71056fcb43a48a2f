package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/stats"
)

// defaultSeed is the seed reference.txt was recorded at.
const defaultSeed = 42

// referenceText holds the fingerprint of every cell of every workload
// at defaultSeed, one "<workload> <cell key> <fingerprint>" line each.
// It was recorded from the unmodified simulator with -write-reference,
// so a change that alters any simulated statistic fails the check.
//
//go:embed reference.txt
var referenceText string

// fingerprint hashes every simulated statistic of a cell's results:
// per-core cycles, instructions, L1 counts and write-throughs, the L2
// access, data-array and bus distributions, both reuse histograms and
// the L2 event counters. Derived floats (IPC) are left out; they are
// functions of the counts.
func fingerprint(r cmpsim.Results) string {
	h := sha256.New()
	fmt.Fprintf(h, "design=%s cycles=%d instr=%d\n", r.Design, r.Cycles, r.Instructions)
	for i, c := range r.Cores {
		fmt.Fprintf(h, "core%d %d %d %d %d %d %d %d\n", i, c.Cycles, c.Instructions,
			c.L1DHits, c.L1DMisses, c.L1IHits, c.L1IMisses, c.Writethroughs)
	}
	if s := r.L2; s != nil {
		writeDist(h, "accesses", s.Accesses)
		writeDist(h, "data", s.DataArray)
		writeDist(h, "bus", s.BusTransactions)
		for b := stats.Reuse0; b <= stats.ReuseOver5; b++ {
			fmt.Fprintf(h, "reuse%d %d %d\n", b, s.ReuseROS.Count(b), s.ReuseRWS.Count(b))
		}
		fmt.Fprintf(h, "counters %d %d %d %d %d %d\n", s.Replications, s.PointerReturns,
			s.Promotions, s.Demotions, s.OffChipMisses, s.LatencySum)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func writeDist(w io.Writer, name string, d *stats.Dist) {
	fmt.Fprintf(w, "%s", name)
	for _, l := range d.Labels() {
		fmt.Fprintf(w, " %q=%d", l, d.Count(l))
	}
	fmt.Fprintln(w)
}

// parseReference reads reference lines into workload -> key -> fingerprint.
func parseReference(text string) (map[string]map[string]string, error) {
	ref := map[string]map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("reference line %d: want 3 fields, got %d", n, len(f))
		}
		if ref[f[0]] == nil {
			ref[f[0]] = map[string]string{}
		}
		ref[f[0]][f[1]] = f[2]
	}
	return ref, sc.Err()
}

// formatReference renders fingerprints in reference.txt's format,
// workloads in the given order and cells in key order.
func formatReference(order []string, fps map[string]map[string]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Cell fingerprints at seed %d; regenerate with -write-reference.\n", defaultSeed)
	for _, w := range order {
		keys := make([]string, 0, len(fps[w]))
		for k := range fps[w] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s %s\n", w, k, fps[w][k])
		}
	}
	return b.String()
}
