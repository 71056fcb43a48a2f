package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// sprintfFuncs are fmt helpers whose first argument carries the
// message; panic(fmt.Sprintf("pkg: ...", ...)) is the dominant idiom.
var sprintfFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
}

// diagnosticMarker marks a named type as a structured panic
// diagnostic in its declaration doc comment. Panics whose argument is
// a marked type (cmpsim.CycleLimitExceeded) are exempt from the
// constant-message requirement: the type's Error() carries the "pkg: "
// prefix instead, and the declaring package's tests lock that prefix.
const diagnosticMarker = "panicmsg:diagnostic"

// NewPanicMsg builds the panic-message-convention rule: every panic in
// an internal package must carry a constant message starting with
// "<pkg>: " (e.g. "bus: non-positive latency"), so an invariant
// violation deep inside a 30-minute reproduction run is immediately
// attributable to the subsystem that detected it. The one exception is
// a structured diagnostic: a panic whose argument is a named type
// whose declaration doc carries the panicmsg:diagnostic marker.
func NewPanicMsg() *Analyzer {
	return &Analyzer{
		Name: "panicmsg",
		Doc:  `panics in internal packages must carry a "pkg: " message prefix or throw a marked diagnostic type`,
		Run: func(prog *Program, report Reporter) {
			marked := diagnosticTypes(prog)
			for _, pkg := range prog.Packages {
				if !pkg.UnderRel("internal") {
					continue
				}
				prefix := pkg.Name + ": "
				for _, file := range pkg.Files {
					checkPanicFile(pkg, file, prefix, marked, report)
				}
			}
		},
	}
}

// diagnosticTypes collects every named type in the module whose
// declaration doc contains the panicmsg:diagnostic marker, keyed by
// qualified path ("pkg/path.Type").
func diagnosticTypes(prog *Program) map[string]bool {
	marked := map[string]bool{}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil {
						doc = gd.Doc
					}
					if doc != nil && strings.Contains(doc.Text(), diagnosticMarker) {
						marked[pkg.Path+"."+ts.Name.Name] = true
						marked[ts.Name.Name] = true
					}
				}
			}
		}
	}
	return marked
}

func checkPanicFile(pkg *Package, file *ast.File, prefix string, marked map[string]bool, report Reporter) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "panic" || len(call.Args) != 1 {
			return true
		}
		// Don't misfire on a local function shadowing the builtin.
		if _, builtin := pkg.Info.Uses[fn].(*types.Builtin); !builtin {
			return true
		}
		if isDiagnosticArg(pkg, call.Args[0], marked) {
			return true
		}
		if msg, ok := panicMessage(pkg, call.Args[0]); !ok || !strings.HasPrefix(msg, prefix) {
			report(call.Pos(), "panic message must be a constant string starting with %q (got %s)",
				prefix, describePanicArg(pkg, call.Args[0]))
		}
		return true
	})
}

// isDiagnosticArg reports whether the panic argument's type (or the
// type it points to) is a marked diagnostic.
func isDiagnosticArg(pkg *Package, arg ast.Expr, marked map[string]bool) bool {
	t := pkg.Info.TypeOf(arg)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return marked[n.Obj().Pkg().Path()+"."+n.Obj().Name()]
}

// panicMessage extracts the constant head of the panic argument: a
// string constant (or concatenation with a constant head), or the
// format string of a fmt.Sprintf-family call.
func panicMessage(pkg *Package, arg ast.Expr) (string, bool) {
	if s, ok := constString(pkg, arg); ok {
		return s, true
	}
	if call, ok := arg.(*ast.CallExpr); ok && len(call.Args) > 0 {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
			usesPackage(pkg, sel, "fmt") && sprintfFuncs[sel.Sel.Name] {
			return constString(pkg, call.Args[0])
		}
	}
	return "", false
}

func describePanicArg(pkg *Package, arg ast.Expr) string {
	if msg, ok := panicMessage(pkg, arg); ok {
		return "\"" + msg + "\""
	}
	return "a non-constant message"
}
