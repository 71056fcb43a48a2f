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
// of the site identity (file, position, operator) — no wall clock, no
// global rand — and the JSON report carries no timings, so two
// consecutive runs over the same tree are byte-identical.
package mutcheck

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// A Site is one potential mutation: the Index-th candidate that
// operator Op finds in File when the file's syntax tree is walked in
// lexical order. Sites are located by (File, Op, Index) rather than by
// node pointer so that enumeration and application can parse the file
// independently and still agree.
type Site struct {
	// File is the module-relative, slash-separated path.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Op names the mutation operator (see Operators).
	Op string `json:"op"`
	// Index is the per-(file, operator) candidate ordinal.
	Index int `json:"-"`
	// Before and After are compact renderings of the mutated
	// construct — the "exact diff" a survivor report shows.
	Before string `json:"before"`
	After  string `json:"after"`
}

// ID is the stable identity used by the allowlist and the report:
// file:line:col:op. Positions shift when the file is edited, which is
// intended — a survivor allowlist entry must be re-justified when the
// code around it changes.
func (s Site) ID() string {
	return fmt.Sprintf("%s:%d:%d:%s", s.File, s.Line, s.Col, s.Op)
}

// hash is the deterministic sampling key for quick-tier selection:
// FNV-1a over the site identity. No wall clock, no process state.
func (s Site) hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s:%d:%d:%s", s.File, s.Line, s.Col, s.Op)
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
// Heavyweight suites (internal/experiments, internal/simguard) are
// deliberately excluded to keep the quick tier inside its CI budget;
// the full tier uses the same sets, so a kill here is a kill a
// developer can reproduce with plain `go test`.
var DefaultPackages = map[string][]string{
	"internal/bus":       {"./internal/bus", "./internal/cmpsim", "."},
	"internal/cache":     {"./internal/cache", "./internal/core", "./internal/l2", "./internal/cmpsim", "."},
	"internal/cmpsim":    {"./internal/cmpsim", "."},
	"internal/coherence": {"./internal/coherence", "./internal/core", "./internal/l2", "."},
	"internal/core":      {"./internal/core", "./internal/cmpsim", "."},
	"internal/l2":        {"./internal/l2", "."},
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
