package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotpath is the static hot-path allocation/indirection rule group.
//
// The simulator's throughput is bounded by its per-cycle path: the
// cmpsim scheduler loop, the L1/L2 lookups it drives, bus arbitration,
// and the coherence transitions. Go's compiler accepts — silently —
// a long list of constructs that heap-allocate or indirect on every
// execution (a fresh make per access, an fmt call in a tick loop, an
// argument boxed into an interface{} parameter), and a single one of
// them inside the per-cycle path costs more than the cache model it
// implements. hotpath makes the property checkable: a call graph is
// built from `hotpath:root`-annotated entry points, and every function
// statically reachable from a root is scanned for the allocating and
// indirecting constructs below. Audited exceptions carry a
// `hotpath:alloc <reason>` marker (see docs/PERF.md).
//
// Flagged constructs:
//
//   - make and new builtins
//   - append (the backing array may grow)
//   - slice and map composite literals, and &T{...} (escapes to heap)
//   - string concatenation (+ and +=) on non-constant operands
//   - any call into package fmt
//   - arguments boxed into interface{} / any parameters
//   - defer (allocates a deferred-call record on older toolchains and
//     hides work at scope exit)
//   - function literals that capture enclosing variables
//   - range over a map (forces randomized iteration machinery)
//
// Exemptions:
//
//   - everything inside a panic(...) argument list: panics are
//     terminal, so diagnostic construction there is off the hot path
//     and its calls do not extend the graph;
//   - constructs on a line carrying (or directly below) a
//     `hotpath:alloc <reason>` comment;
//   - whole functions whose doc comment carries the marker.
//
// Dynamic dispatch (interface method calls, calls through function
// values and fields) cannot be traversed statically; each concrete
// implementation of a hot interface method is therefore its own root.

const (
	hotRootMarker  = "hotpath:root"
	hotAllocMarker = "hotpath:alloc"
)

// NewHotpath builds the hot-path rule group.
func NewHotpath() *Analyzer {
	return &Analyzer{
		Name: "hotpath",
		Doc: "functions reachable from hotpath:root entry points are free of " +
			"allocation and indirection constructs (make/new/append, composite " +
			"literals, string concat, fmt, interface boxing, defer, capturing " +
			"closures, map iteration) unless audited with hotpath:alloc",
		Run: runHotpath,
	}
}

// hotChecker carries the per-run state of the analysis.
type hotChecker struct {
	report Reporter
	audits auditLines
}

func runHotpath(prog *Program, report Reporter) {
	hc := &hotChecker{report: report, audits: collectAuditLines(prog, hotAllocMarker, report)}
	funcs := indexFuncs(prog)
	var roots []*types.Func
	for _, fn := range funcs.list {
		if _, root := markerReason(fn.decl.Doc, hotRootMarker); root {
			roots = append(roots, fn.obj)
		}
		if reason, found := markerReason(fn.decl.Doc, hotAllocMarker); found && reason == "" {
			report(fn.decl.Pos(), "hotpath:alloc marker on %s is missing a reason", fn.decl.Name.Name)
		}
	}
	funcs.walk(roots, func(fn *moduleFunc, root *types.Func) []*types.Func {
		return hc.scan(fn, hotFuncName(root))
	})
}

// flag reports one construct unless a marker audits it.
func (hc *hotChecker) flag(hf *moduleFunc, via string, pos token.Pos, detail string) {
	if hc.audits.covers(hf.decl.Doc, pos) {
		return
	}
	hc.report(pos, "hot path via %s: %s (restructure, or audit with a hotpath:alloc marker)", via, detail)
}

// scan walks one reachable function: it flags hot-path constructs and
// returns the statically resolvable callees that extend the graph.
func (hc *hotChecker) scan(hf *moduleFunc, via string) []*types.Func {
	var callees []*types.Func
	info := hf.pkg.Info
	ast.Inspect(hf.decl.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if isBuiltinCall(info, e, "panic") {
				// Terminal: panic-argument construction is off the hot
				// path and its calls do not extend the graph.
				return false
			}
			hc.checkCall(hf, via, e, &callees)
		case *ast.CompositeLit:
			if t := exprType(info, e); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					hc.flag(hf, via, e.Pos(), "slice literal allocates its backing array per evaluation")
				case *types.Map:
					hc.flag(hf, via, e.Pos(), "map literal allocates per evaluation")
				}
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, lit := e.X.(*ast.CompositeLit); lit {
					hc.flag(hf, via, e.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isNonConstString(info, e) {
				hc.flag(hf, via, e.OpPos, "string concatenation allocates; build messages off the hot path")
			}
		case *ast.AssignStmt:
			if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 && isStringType(exprType(info, e.Lhs[0])) {
				hc.flag(hf, via, e.TokPos, "string += allocates; build messages off the hot path")
			}
		case *ast.DeferStmt:
			hc.flag(hf, via, e.Pos(), "defer on the hot path; call at the exit sites instead")
		case *ast.FuncLit:
			if name, captures := capturesOuter(info, hf.decl, e); captures {
				hc.flag(hf, via, e.Pos(), "closure captures "+name+" by reference and may force it to the heap")
			}
		case *ast.RangeStmt:
			if t := exprType(info, e.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					hc.flag(hf, via, e.Range, "map iteration on the hot path; use an indexable structure")
				}
			}
		}
		return true
	})
	return callees
}

// checkCall handles one call expression: builtin allocators, fmt
// calls, interface boxing, and static callee resolution.
func (hc *hotChecker) checkCall(hf *moduleFunc, via string, call *ast.CallExpr, callees *[]*types.Func) {
	info := hf.pkg.Info
	switch {
	case isBuiltinCall(info, call, "make"):
		hc.flag(hf, via, call.Pos(), "make allocates per call; pre-size a reusable buffer")
		return
	case isBuiltinCall(info, call, "new"):
		hc.flag(hf, via, call.Pos(), "new allocates per call; reuse a value instead")
		return
	case isBuiltinCall(info, call, "append"):
		hc.flag(hf, via, call.Pos(), "append may grow its backing array; pre-size the buffer")
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && usesPackage(hf.pkg, sel, "fmt") {
		hc.flag(hf, via, call.Pos(), "fmt."+sel.Sel.Name+" formats and allocates; format off the hot path")
		// Boxing into fmt's ...any parameters is implied; one
		// diagnostic per call is enough.
		return
	}
	if sig := callSignature(info, call); sig != nil {
		hc.checkBoxing(hf, via, call, sig)
	}
	if callee := staticCallee(info, call); callee != nil {
		*callees = append(*callees, callee)
	}
}

// checkBoxing flags arguments whose concrete values are implicitly
// boxed into empty-interface parameters.
func (hc *hotChecker) checkBoxing(hf *moduleFunc, via string, call *ast.CallExpr, sig *types.Signature) {
	if call.Ellipsis.IsValid() {
		return // x... passes an existing slice; nothing new is boxed
	}
	info := hf.pkg.Info
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		iface, ok := pt.Underlying().(*types.Interface)
		if !ok || !iface.Empty() {
			continue
		}
		tv, ok := info.Types[arg]
		if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() {
			continue // constants fold; nil boxes no value
		}
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
			continue
		}
		hc.flag(hf, via, arg.Pos(), "argument of type "+typeLabel(tv.Type)+" is boxed into an interface{} parameter")
	}
}

// --- resolution helpers ---

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin
}

func exprType(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// isNonConstString reports whether e is a string concatenation that
// survives to run time (constant concatenations fold at compile time).
func isNonConstString(info *types.Info, e *ast.BinaryExpr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	return isStringType(tv.Type)
}

// callSignature resolves the signature of a call's target, returning
// nil for conversions and builtins.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// capturesOuter reports whether lit references a variable declared in
// the enclosing function but outside lit, naming the first one found.
func capturesOuter(info *types.Info, enclosing *ast.FuncDecl, lit *ast.FuncLit) (string, bool) {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		pos := v.Pos()
		if pos >= enclosing.Pos() && pos < lit.Pos() {
			name = v.Name()
		}
		return true
	})
	return name, name != ""
}

// hotFuncName renders a function as pkgname.Func or
// pkgname.(*Recv).Method for diagnostics.
func hotFuncName(f *types.Func) string {
	name := f.Name()
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		prefix := ""
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
			prefix = "*"
		}
		if named, ok := rt.(*types.Named); ok {
			rname := named.Obj().Name()
			if prefix != "" {
				name = "(" + prefix + rname + ")." + name
			} else {
				name = rname + "." + name
			}
		}
	}
	if f.Pkg() != nil {
		return f.Pkg().Name() + "." + name
	}
	return name
}
