package mutcheck

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Outcome classifies one executed mutant.
type Outcome string

const (
	// Killed: the target tests failed (or timed out — the cycle
	// ceilings turn runaway simulations into failures) against the
	// mutant.
	Killed Outcome = "killed"
	// Survived: every target test passed with the mutant in place.
	Survived Outcome = "survived"
	// Stillborn: the mutant did not compile (or failed vet). Not a
	// test-strength signal, so stillborns are excluded from the kill
	// ratio denominator.
	Stillborn Outcome = "stillborn"
)

// Survivor is one surviving mutant, with the exact diff.
type Survivor struct {
	ID          string `json:"id"`
	File        string `json:"file"`
	Line        int    `json:"line"`
	Col         int    `json:"col"`
	Op          string `json:"op"`
	Before      string `json:"before"`
	After       string `json:"after"`
	Allowlisted bool   `json:"allowlisted"`
	Reason      string `json:"reason,omitempty"`
}

// PackageReport aggregates one package's mutants. KillRatio is
// killed/(killed+survived) — allowlisted survivors still count
// against it, so the committed baseline reflects genuine test
// strength, not allowlist growth.
type PackageReport struct {
	Package     string     `json:"package"`
	Sites       int        `json:"sites"`
	Selected    int        `json:"selected"`
	Killed      int        `json:"killed"`
	Survived    int        `json:"survived"`
	Stillborn   int        `json:"stillborn"`
	Allowlisted int        `json:"allowlisted"`
	KillRatio   float64    `json:"kill_ratio"`
	Survivors   []Survivor `json:"survivors,omitempty"`
}

// Report is the MUTATION_quick.json shape. No timestamps, host info,
// or durations: two runs over the same tree must be byte-identical.
type Report struct {
	Format   int             `json:"format"`
	Tier     string          `json:"tier"`
	Cap      int             `json:"cap_per_package"`
	Packages []PackageReport `json:"packages"`
	Total    PackageReport   `json:"total"`
}

// ratio returns killed/(killed+survived), or 1 for an empty
// denominator (no executable mutants means nothing survived).
func ratio(killed, survived int) float64 {
	if killed+survived == 0 {
		return 1
	}
	return float64(killed) / float64(killed+survived)
}

// finish sorts, totals, and fills derived fields.
func (r *Report) finish() {
	sort.Slice(r.Packages, func(i, j int) bool { return r.Packages[i].Package < r.Packages[j].Package })
	total := PackageReport{Package: "total"}
	for i := range r.Packages {
		p := &r.Packages[i]
		sort.Slice(p.Survivors, func(a, b int) bool { return p.Survivors[a].ID < p.Survivors[b].ID })
		p.KillRatio = ratio(p.Killed, p.Survived)
		total.Sites += p.Sites
		total.Selected += p.Selected
		total.Killed += p.Killed
		total.Survived += p.Survived
		total.Stillborn += p.Stillborn
		total.Allowlisted += p.Allowlisted
	}
	total.KillRatio = ratio(total.Killed, total.Survived)
	r.Total = total
}

// Unallowlisted returns the survivors that carry no allowlist reason —
// the ones that fail the run.
func (r *Report) Unallowlisted() []Survivor {
	var out []Survivor
	for _, p := range r.Packages {
		for _, s := range p.Survivors {
			if !s.Allowlisted {
				out = append(out, s)
			}
		}
	}
	return out
}

// MarshalIndent renders the canonical byte-stable JSON form.
func (r *Report) MarshalIndent() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// UnmarshalReport parses the canonical JSON form.
func UnmarshalReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if r.Format != 1 {
		return nil, fmt.Errorf("mutcheck: unsupported report format %d", r.Format)
	}
	return &r, nil
}

// Compare diffs a fresh report against the committed baseline: the
// kill ratio may rise but never fall, per package and in total, and
// no baseline package may disappear. A ratio compares only like with
// like, so the tier, the cap and each package's site count must match
// the baseline's too. Returns the number of failures, writing one line
// per failure (and per informational note) to out.
func Compare(base, fresh *Report, out io.Writer) int {
	failures := 0
	mismatch := func(what string, got, want any) {
		fmt.Fprintf(out, "FAIL %s: %v in this run, %v in the baseline (re-record it with -write)\n", what, got, want)
		failures++
	}
	if fresh.Tier != base.Tier {
		mismatch("tier", fresh.Tier, base.Tier)
	}
	if fresh.Cap != base.Cap {
		mismatch("cap per package", fresh.Cap, base.Cap)
	}
	byName := make(map[string]*PackageReport, len(fresh.Packages))
	for i := range fresh.Packages {
		byName[fresh.Packages[i].Package] = &fresh.Packages[i]
	}
	for _, b := range base.Packages {
		got, ok := byName[b.Package]
		if !ok {
			fmt.Fprintf(out, "FAIL %s: in baseline but missing from this run\n", b.Package)
			failures++
			continue
		}
		delete(byName, b.Package)
		if got.Sites != b.Sites {
			mismatch(b.Package+" sites", got.Sites, b.Sites)
		}
		if got.KillRatio < b.KillRatio {
			fmt.Fprintf(out, "FAIL %s: kill ratio %.3f fell below baseline %.3f (%d/%d killed vs %d/%d)\n",
				b.Package, got.KillRatio, b.KillRatio,
				got.Killed, got.Killed+got.Survived, b.Killed, b.Killed+b.Survived)
			failures++
		}
	}
	extra := make([]string, 0, len(byName))
	for name := range byName {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(out, "note: %s is not in the baseline yet\n", name)
	}
	if fresh.Total.KillRatio < base.Total.KillRatio {
		fmt.Fprintf(out, "FAIL total: kill ratio %.3f fell below baseline %.3f\n",
			fresh.Total.KillRatio, base.Total.KillRatio)
		failures++
	}
	return failures
}
