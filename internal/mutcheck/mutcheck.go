// Package mutcheck is a stdlib-only (go/ast, go/token, go/format)
// mutation-testing engine for this repository: it enumerates small,
// plausible single-edit faults ("mutants") over the hot simulator
// packages, applies one at a time into a shadow copy of the module,
// runs the test set that should catch a bug in that package, and
// records whether the tests killed the mutant.
//
// The resulting kill ratio is a *measured* answer to "would the tests
// catch a subtle break here?" — the same test-strength question the
// protocheck model checker answers for the coherence protocol, asked
// of the whole timing/allocation substrate. The quick tier (capped
// mutant count per package, -short tests) runs in CI against the
// committed MUTATION_quick.json baseline; the full tier enumerates
// every site for local audits. See docs/ANALYSIS.md, "Mutation
// testing".
//
// Everything is deterministic: site enumeration follows lexical file
// and syntax order, quick-tier sampling orders sites by an FNV-1a hash
// of the site identity (file, enclosing declaration, operator,
// ordinal) — no wall clock, no global rand, no line numbers — and the
// JSON report carries no timings, so two consecutive runs over the
// same tree are byte-identical, and an edit outside a function cannot
// redraw that function's sites.
package mutcheck

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// A Site is one potential mutation: the Index-th candidate that
// operator Op finds inside the top-level declaration Func of File when
// the file's syntax tree is walked in lexical order. Sites are located
// by (File, Func, Op, Index) rather than by node pointer or position,
// so enumeration and application can parse the file independently and
// still agree, and an edit elsewhere in the file — a blank line, a new
// function — leaves the site's identity alone.
type Site struct {
	// File is the module-relative, slash-separated path.
	File string `json:"file"`
	// Line and Col locate the site for people; they are not part of
	// its identity.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Func names the enclosing top-level declaration: F, Recv.Method,
	// or the first name of a package-level var/const/type spec.
	Func string `json:"func"`
	// Op names the mutation operator (see Operators).
	Op string `json:"op"`
	// Index is the per-(file, Func, operator) candidate ordinal.
	Index int `json:"index"`
	// Before and After are compact renderings of the mutated
	// construct — the "exact diff" a survivor report shows.
	Before string `json:"before"`
	After  string `json:"after"`
}

// ID is the stable identity used by the allowlist, the report and
// quick-tier sampling: file:func:op:index. An edit inside the function
// can renumber its sites, which is intended — an allowlist entry must
// be re-justified when the code around it changes — but an edit
// anywhere else cannot.
func (s Site) ID() string {
	return fmt.Sprintf("%s:%s:%s:%d", s.File, s.Func, s.Op, s.Index)
}

// Pos is the human-readable file:line:col of the site.
func (s Site) Pos() string {
	return fmt.Sprintf("%s:%d:%d", s.File, s.Line, s.Col)
}

// hash is the deterministic sampling key for quick-tier selection:
// FNV-1a over the site identity. No wall clock, no process state.
func (s Site) hash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(s.ID()))
	return h.Sum64()
}

// SelectSites returns up to cap sites chosen deterministically by
// hash order (ties broken by ID), or all sites when cap <= 0. The
// hash spreads the sample across files and operators instead of
// front-loading whatever happens to be first in the first file.
func SelectSites(sites []Site, cap int) []Site {
	out := append([]Site(nil), sites...)
	sort.Slice(out, func(i, j int) bool {
		hi, hj := out[i].hash(), out[j].hash()
		if hi != hj {
			return hi < hj
		}
		return out[i].ID() < out[j].ID()
	})
	if cap > 0 && len(out) > cap {
		out = out[:cap]
	}
	// Report and execution order is ID order — stable and readable.
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// DefaultPackages maps each hot package (module-relative directory)
// to the `go test` targets that are expected to kill a mutant in it:
// the package's own tests, the unit tests of its closest dependents,
// and the root facade tests (which run every design end-to-end).
// The heavyweight internal/experiments suite is
// deliberately excluded to keep the quick tier inside its CI budget;
// the full tier uses the same sets, so a kill here is a kill a
// developer can reproduce with plain `go test`.
var DefaultPackages = map[string][]string{
	"internal/bus":       {"./internal/bus", "./internal/cmpsim", "."},
	"internal/cache":     {"./internal/cache", "./internal/core", "./internal/l2", "./internal/cmpsim", "."},
	"internal/cmpsim":    {"./internal/cmpsim", "."},
	"internal/coherence": {"./internal/coherence", "./internal/core", "./internal/l2", "."},
	"internal/core":      {"./internal/core", "./internal/cmpsim", "."},
	"internal/l2":        {"./internal/l2", "./internal/cmpsim", "."},
	"internal/memsys":    {"./internal/memsys", "./internal/bus", "./internal/cache", "./internal/core", "./internal/l2", "./internal/cmpsim", "."},
}

// PackageNames returns the DefaultPackages keys, sorted.
func PackageNames() []string {
	names := make([]string, 0, len(DefaultPackages))
	for name := range DefaultPackages {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
