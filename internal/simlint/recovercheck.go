package simlint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// DefaultRecoverAllowed is the repository's recover() allowlist,
// keyed by module-relative package path:
//
//   - internal/experiments.CapturePanic is the scheduler's designated
//     cell-recovery helper — the single place a simulation panic may
//     be converted into a CellFailure.
//   - internal/protocheck.callProc / callSnoop probe the protocol
//     tables for undefined transitions; recovering the table's panic
//     is how the model checker observes "no transition defined".
var DefaultRecoverAllowed = map[string][]string{
	"internal/experiments": {"CapturePanic"},
	"internal/protocheck":  {"callProc", "callSnoop"},
}

// NewRecoverCheck builds the recovery-containment rule: recover() may
// appear only inside the allowlisted functions. Everywhere else a
// recover() would silently swallow the structured diagnostics the
// simulator aborts with (cmpsim.CycleLimitExceeded, invariant
// panics), turning a runaway clock or coherence violation into a wrong
// number in a table. Test files are exempt — tests legitimately assert
// that code panics.
func NewRecoverCheck(allowed map[string][]string) *Analyzer {
	return &Analyzer{
		Name: "recovercheck",
		Doc:  "recover() is legal only inside the scheduler's designated cell-recovery helper (and the protocol checker's probes)",
		Run: func(prog *Program, report Reporter) {
			for _, pkg := range prog.Packages {
				allowedFns := map[string]bool{}
				for _, fn := range allowed[pkg.Rel] {
					allowedFns[fn] = true
				}
				for _, file := range pkg.Files {
					checkRecoverFile(pkg, file, allowedFns, report)
				}
			}
		},
	}
}

func checkRecoverFile(pkg *Package, file *ast.File, allowedFns map[string]bool, report Reporter) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		// A recover() anywhere inside an allowlisted top-level function
		// is fine — including the deferred closure the idiom requires.
		if fd.Recv == nil && allowedFns[fd.Name.Name] {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "recover" || len(call.Args) != 0 {
				return true
			}
			// Don't misfire on a local function shadowing the builtin.
			if _, builtin := pkg.Info.Uses[fn].(*types.Builtin); !builtin {
				return true
			}
			report(call.Pos(), "recover() outside the designated recovery helpers (allowed here: %s)",
				describeAllowed(allowedFns))
			return true
		})
	}
}

func describeAllowed(allowedFns map[string]bool) string {
	if len(allowedFns) == 0 {
		return "none"
	}
	names := make([]string, 0, len(allowedFns))
	for fn := range allowedFns {
		names = append(names, fn)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
