package simlint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// enumInfo describes one domain enum: a named type declared in an
// internal package whose underlying type is int8 and which has at
// least one package-level constant of that exact type (the iota-enum
// idiom used by coherence.State, ProcOp, BusOp and SnoopAction).
type enumInfo struct {
	typ       *types.Named
	constants []*types.Const // declaration order not guaranteed; sorted by value
}

// NewEnumSwitch builds the enum-exhaustiveness rule: every switch over
// a domain enum must either handle all declared constants explicitly
// or carry a default clause that unconditionally panics. A switch that
// misses constants and then falls through to whatever code follows is
// exactly how a protocol transition function silently returns a
// zero-value (state, action) for an input the author never considered;
// internal/protocheck then model-checks the semantics this rule makes
// syntactically total.
func NewEnumSwitch() *Analyzer {
	return &Analyzer{
		Name: "enumswitch",
		Doc: "switches over int8-backed internal enums must handle every " +
			"constant or panic in default",
		Run: func(prog *Program, report Reporter) {
			enums := collectEnums(prog)
			if len(enums) == 0 {
				return
			}
			for _, pkg := range prog.Packages {
				for _, file := range pkg.Files {
					checkEnumSwitchFile(pkg, file, enums, report)
				}
			}
		},
	}
}

// collectEnums finds every int8-backed enum declared under internal/.
func collectEnums(prog *Program) map[*types.Named]*enumInfo {
	enums := map[*types.Named]*enumInfo{}
	for _, pkg := range prog.Packages {
		if !pkg.UnderRel("internal") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			basic, ok := named.Underlying().(*types.Basic)
			if !ok || basic.Kind() != types.Int8 {
				continue
			}
			enums[named] = &enumInfo{typ: named}
		}
		// Second pass over the same scope: attach constants to the
		// enums they belong to.
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if !ok {
				continue
			}
			named, ok := c.Type().(*types.Named)
			if !ok {
				continue
			}
			if info, ok := enums[named]; ok {
				info.constants = append(info.constants, c)
			}
		}
	}
	for t, info := range enums {
		if len(info.constants) == 0 {
			delete(enums, t) // an int8 type with no constants is not an enum
			continue
		}
		sort.Slice(info.constants, func(i, j int) bool {
			vi, _ := constant.Int64Val(info.constants[i].Val())
			vj, _ := constant.Int64Val(info.constants[j].Val())
			if vi != vj {
				return vi < vj
			}
			return info.constants[i].Name() < info.constants[j].Name()
		})
	}
	return enums
}

func checkEnumSwitchFile(pkg *Package, file *ast.File, enums map[*types.Named]*enumInfo, report Reporter) {
	ast.Inspect(file, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		tv, ok := pkg.Info.Types[sw.Tag]
		if !ok || tv.Type == nil {
			return true
		}
		named, ok := tv.Type.(*types.Named)
		if !ok {
			return true
		}
		info, ok := enums[named]
		if !ok {
			return true
		}

		covered := map[int64]bool{}
		var defaultClause *ast.CaseClause
		for _, stmt := range sw.Body.List {
			clause, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			if clause.List == nil {
				defaultClause = clause
				continue
			}
			for _, expr := range clause.List {
				ctv, ok := pkg.Info.Types[expr]
				if !ok || ctv.Value == nil {
					continue
				}
				if v, exact := constant.Int64Val(ctv.Value); exact {
					covered[v] = true
				}
			}
		}

		var missing []string
		seen := map[int64]bool{}
		for _, c := range info.constants {
			v, _ := constant.Int64Val(c.Val())
			if covered[v] || seen[v] {
				continue
			}
			seen[v] = true
			missing = append(missing, c.Name())
		}
		if len(missing) == 0 {
			return true
		}
		if defaultClause != nil && clausePanics(defaultClause) {
			return true
		}
		typeName := named.Obj().Pkg().Name() + "." + named.Obj().Name()
		if defaultClause != nil {
			report(sw.Pos(), "switch over %s misses %s and its default does not panic; handle the missing constants or make the default panic",
				typeName, strings.Join(missing, ", "))
		} else {
			report(sw.Pos(), "switch over %s misses %s with no default; control falls through silently — handle them or add a panicking default",
				typeName, strings.Join(missing, ", "))
		}
		return true
	})
}

// clausePanics reports whether the clause body ends in an unconditional
// call to the builtin panic. A conditional panic does not count: the
// fall-through path the rule exists to close would still be open.
func clausePanics(clause *ast.CaseClause) bool {
	if len(clause.Body) == 0 {
		return false
	}
	expr, ok := clause.Body[len(clause.Body)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := expr.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	return ok && fn.Name == "panic"
}
