package simlint

import (
	"go/ast"
	"go/token"
)

// CoverageTarget names one cache type whose mutating surface must be
// exercised under its invariant checker.
type CoverageTarget struct {
	Rel  string // module-relative package path, e.g. "internal/core"
	Type string // type name, e.g. "Cache"
}

// DefaultCoverageTargets are the designs that maintain cross-structure
// pointer/coherence invariants and expose a CheckInvariants method.
// (l2.Shared is a single set-associative array with no cross-structure
// state, so it has nothing to check.)
var DefaultCoverageTargets = []CoverageTarget{
	{Rel: "internal/core", Type: "Cache"},
	{Rel: "internal/l2", Type: "Private"},
	{Rel: "internal/l2", Type: "SNUCA"},
}

// mutatorLeafNames are methods on embedded structures (cache.Array,
// bus.Port, stats counters) that mutate state; a call to one of these
// rooted at the receiver marks the calling method as mutating.
var mutatorLeafNames = map[string]bool{
	"Install": true, "Invalidate": true, "Touch": true, "Acquire": true,
	"Inc": true, "Add": true, "Record": true, "Reset": true,
}

// NewInvariantCoverage builds the invariant-coverage rule: every
// exported mutating method on each target type must be called from at
// least one _test.go file that also calls CheckInvariants, so no
// state-changing operation can regress the pointer structure or the
// MESIC single-writer rule unnoticed. "Mutating" is computed as a
// fixpoint over the type's methods: a method mutates if it assigns
// through the receiver, calls a mutating sibling, or calls a known
// mutator (Install, Invalidate, ...) on receiver-owned state. Call
// sites in tests are matched by method name, which can only
// under-report coverage gaps, never invent them for covered methods.
func NewInvariantCoverage(targets []CoverageTarget) *Analyzer {
	return &Analyzer{
		Name: "invariantcov",
		Doc:  "every exported mutating method on invariant-carrying cache types needs a CheckInvariants-bracketed test",
		Run: func(prog *Program, report Reporter) {
			covered := coveredMethodNames(prog)
			for _, tgt := range targets {
				pkg := prog.ByRel(tgt.Rel)
				if pkg == nil {
					report(token.NoPos, "coverage target %s.%s: package %q not found", tgt.Rel, tgt.Type, tgt.Rel)
					continue
				}
				checkTargetCoverage(pkg, tgt, covered, report)
			}
		},
	}
}

// coveredMethodNames scans every test file in the program: a file that
// calls CheckInvariants contributes all method names it calls to the
// covered set.
func coveredMethodNames(prog *Program) map[string]bool {
	covered := map[string]bool{}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.TestFiles {
			names := map[string]bool{}
			checksInvariants := false
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					names[sel.Sel.Name] = true
					if sel.Sel.Name == "CheckInvariants" {
						checksInvariants = true
					}
				}
				return true
			})
			if checksInvariants {
				for name := range names {
					covered[name] = true
				}
			}
		}
	}
	return covered
}

// methodInfo is one method of the target type during the mutating-set
// fixpoint computation.
type methodInfo struct {
	decl     *ast.FuncDecl
	recv     string          // receiver identifier ("" if anonymous)
	mutating bool            // assigns through receiver or calls a mutator leaf
	calls    map[string]bool // sibling methods invoked on the receiver
}

func checkTargetCoverage(pkg *Package, tgt CoverageTarget, covered map[string]bool, report Reporter) {
	methods := map[string]*methodInfo{}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			if receiverTypeName(fd.Recv.List[0].Type) != tgt.Type {
				continue
			}
			mi := &methodInfo{decl: fd, calls: map[string]bool{}}
			if names := fd.Recv.List[0].Names; len(names) > 0 {
				mi.recv = names[0].Name
			}
			methods[fd.Name.Name] = mi
		}
	}
	if len(methods) == 0 {
		report(token.NoPos, "coverage target %s.%s: type has no methods", tgt.Rel, tgt.Type)
		return
	}
	if _, ok := methods["CheckInvariants"]; !ok {
		report(token.NoPos, "coverage target %s.%s: type has no CheckInvariants method", tgt.Rel, tgt.Type)
		return
	}

	for name, mi := range methods {
		if name == "CheckInvariants" || mi.recv == "" || mi.decl.Body == nil {
			continue
		}
		scanMethodBody(mi, methods)
	}
	// Fixpoint: mutation propagates up the sibling call graph.
	for changed := true; changed; {
		changed = false
		for _, mi := range methods {
			if mi.mutating {
				continue
			}
			for callee := range mi.calls {
				if cm, ok := methods[callee]; ok && cm.mutating {
					mi.mutating = true
					changed = true
					break
				}
			}
		}
	}

	for name, mi := range methods {
		if name == "CheckInvariants" || !mi.mutating || !ast.IsExported(name) {
			continue
		}
		if !covered[name] {
			report(mi.decl.Pos(),
				"%s.%s.%s mutates cache state but no test file calls it alongside CheckInvariants",
				pkg.Name, tgt.Type, name)
		}
	}
}

func scanMethodBody(mi *methodInfo, methods map[string]*methodInfo) {
	recv := mi.recv
	rootedAtRecv := func(expr ast.Expr) bool {
		id := rootIdent(expr)
		return id != nil && id.Name == recv
	}
	ast.Inspect(mi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if rootedAtRecv(lhs) {
					mi.mutating = true
				}
			}
		case *ast.IncDecStmt:
			if rootedAtRecv(n.X) {
				mi.mutating = true
			}
		case *ast.CallExpr:
			switch fn := n.Fun.(type) {
			case *ast.Ident:
				// delete(recv.m, k) mutates receiver-owned state.
				if fn.Name == "delete" && len(n.Args) == 2 && rootedAtRecv(n.Args[0]) {
					mi.mutating = true
				}
			case *ast.SelectorExpr:
				if !rootedAtRecv(fn.X) {
					break
				}
				if id, ok := fn.X.(*ast.Ident); ok && id.Name == recv {
					if _, sibling := methods[fn.Sel.Name]; sibling {
						mi.calls[fn.Sel.Name] = true
						break
					}
				}
				if mutatorLeafNames[fn.Sel.Name] {
					mi.mutating = true
				}
			}
		}
		return true
	})
}

func receiverTypeName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return receiverTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver T[P]
		return receiverTypeName(e.X)
	case *ast.IndexListExpr:
		return receiverTypeName(e.X)
	}
	return ""
}
