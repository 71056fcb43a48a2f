package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"unicode"
)

// unitKind classifies a dimensional unit type. The distinction that
// matters to the rules is absolute (timestamp) versus relative
// (duration, size, length): relative quantities add and subtract
// within their dimension, absolute ones do not.
type unitKind string

const (
	kindTimestamp unitKind = "timestamp"
	kindDuration  unitKind = "duration"
	kindSize      unitKind = "size"
	kindLength    unitKind = "length"
)

// unitRegistry is the set of unit types discovered from
// `unitcheck:unit <kind>` markers in type doc comments, plus the
// packages that declare them. A declaring package is the one place raw
// conversions are legitimate — that is where the named constructors
// live — so it is exempt from every rule.
type unitRegistry struct {
	kinds map[*types.TypeName]unitKind
	pkgs  map[string]bool // package paths declaring at least one unit
}

// unitWords are the identifier words that claim a unit. A raw
// int/uint64/float64 field, parameter or named result whose name
// word-splits to one of these outside a unit package is a quantity
// that escaped the type system.
var unitWords = map[string]bool{
	"cycle": true, "cycles": true, "latency": true, "ps": true,
	"mm": true, "bytes": true, "now": true, "when": true,
}

// NewUnitCheck builds the dimensional-safety rule group. The Go type
// system already rejects unit mix-ups once quantities are named types
// (a Span plus a Picos, or a Span plus a raw int64, does not compile);
// unitcheck closes the three holes it leaves open:
//
//  1. same-type arithmetic that is dimensionally meaningless —
//     timestamp±timestamp (use Add/Sub with a duration) and
//     duration×duration;
//  2. raw conversions T(x) into a unit type outside the package that
//     declares T — values must enter a unit through its named
//     constructors (cacti.ToCycles, memsys.CyclesOf, ...), which
//     fix the rounding direction in one place;
//  3. raw-typed declarations whose names claim a unit (latency,
//     cycles, ps, mm, bytes, now, when, ...);
//  4. an untyped constant passed as a timestamp argument. A timestamp
//     is a point on some clock, so a literal one (`f(0, ...)`) is a
//     clock that was never read; the call must pass a real clock or
//     carry a `unitcheck:timestamp <reason>` audit marker.
func NewUnitCheck() *Analyzer {
	return &Analyzer{
		Name: "unitcheck",
		Doc: "simulator quantities flow through unit types: no " +
			"timestamp+timestamp or duration*duration, no literal timestamp " +
			"arguments, raw conversions and unit-named raw declarations " +
			"only in unit packages",
		Run: func(prog *Program, report Reporter) {
			reg := collectUnits(prog)
			if len(reg.kinds) == 0 {
				return
			}
			audits := collectAuditLines(prog, timestampMarker, report)
			for _, pkg := range prog.Packages {
				if reg.pkgs[pkg.Path] {
					continue
				}
				for _, file := range pkg.Files {
					checkUnitFile(pkg, file, reg, audits, report)
				}
			}
		},
	}
}

// timestampMarker audits a literal timestamp argument (sub-rule 4) on
// its own line or the line above.
const timestampMarker = "unitcheck:timestamp"

// collectUnits scans every type declaration for a unitcheck:unit
// marker and resolves the marked names to their type objects.
func collectUnits(prog *Program) *unitRegistry {
	reg := &unitRegistry{kinds: map[*types.TypeName]unitKind{}, pkgs: map[string]bool{}}
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
					kind, ok := unitMarker(doc)
					if !ok {
						continue
					}
					tn, ok := pkg.Types.Scope().Lookup(ts.Name.Name).(*types.TypeName)
					if !ok {
						continue
					}
					reg.kinds[tn] = kind
					reg.pkgs[pkg.Path] = true
				}
			}
		}
	}
	return reg
}

// unitMarker extracts the kind from a `unitcheck:unit <kind>` line in
// a doc comment.
func unitMarker(doc *ast.CommentGroup) (unitKind, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, found := strings.CutPrefix(text, "unitcheck:unit"); found {
			if k := strings.TrimSpace(rest); k != "" {
				return unitKind(k), true
			}
		}
	}
	return "", false
}

// unitOf returns the unit classification of a type, if it has one.
func (r *unitRegistry) unitOf(t types.Type) (*types.TypeName, unitKind, bool) {
	named, ok := t.(*types.Named)
	if !ok {
		return nil, "", false
	}
	k, ok := r.kinds[named.Obj()]
	return named.Obj(), k, ok
}

// unitName renders a unit type as pkg.Name for diagnostics.
func unitName(tn *types.TypeName) string {
	if tn.Pkg() != nil {
		return tn.Pkg().Name() + "." + tn.Name()
	}
	return tn.Name()
}

// arithOf maps compound-assignment tokens onto their underlying binary
// operators; plain binary operators map to themselves.
var arithOf = map[token.Token]token.Token{
	token.ADD: token.ADD, token.SUB: token.SUB, token.MUL: token.MUL,
	token.QUO: token.QUO, token.REM: token.REM,
	token.ADD_ASSIGN: token.ADD, token.SUB_ASSIGN: token.SUB,
	token.MUL_ASSIGN: token.MUL, token.QUO_ASSIGN: token.QUO,
	token.REM_ASSIGN: token.REM,
}

func checkUnitFile(pkg *Package, file *ast.File, reg *unitRegistry, audits auditLines, report Reporter) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.BinaryExpr:
			if op, ok := arithOf[e.Op]; ok {
				checkUnitArith(pkg, reg, op, e.X, e.Y, e.OpPos, report)
			}
		case *ast.AssignStmt:
			if op, ok := arithOf[e.Tok]; ok && len(e.Lhs) == 1 && len(e.Rhs) == 1 {
				checkUnitArith(pkg, reg, op, e.Lhs[0], e.Rhs[0], e.TokPos, report)
			}
		case *ast.CallExpr:
			checkUnitConversion(pkg, reg, e, report)
			checkTimestampArgs(pkg, reg, e, audits, report)
		case *ast.StructType:
			for _, field := range e.Fields.List {
				checkUnitNames(pkg, reg, "field", field, report)
			}
		case *ast.FuncType:
			if e.Params != nil {
				for _, field := range e.Params.List {
					checkUnitNames(pkg, reg, "parameter", field, report)
				}
			}
			if e.Results != nil {
				for _, field := range e.Results.List {
					checkUnitNames(pkg, reg, "result", field, report)
				}
			}
		}
		return true
	})
}

// checkUnitArith enforces rule 1 on one arithmetic operation. The
// compiler has already made both operands one type; a constant operand
// is a dimensionless scalar and exempts the whole expression: `lat * 2`
// scales a duration, `now + 32` advances a timestamp by a literal span.
func checkUnitArith(pkg *Package, reg *unitRegistry, op token.Token, x, y ast.Expr, pos token.Pos, report Reporter) {
	xt, xConst := operandType(pkg, x)
	_, yConst := operandType(pkg, y)
	if xConst || yConst {
		return
	}
	u, kind, ok := reg.unitOf(xt)
	switch {
	case !ok:
	case kind == kindTimestamp:
		report(pos, "direct %s arithmetic on two %s timestamps; use Add with a duration or Sub to get one",
			op, unitName(u))
	case op == token.MUL || op == token.REM:
		report(pos, "%s %s %s has no dimensional meaning; scale with a dimensionless count instead",
			unitName(u), op, unitName(u))
	}
}

// operandType resolves an operand's type and whether it is a
// compile-time constant.
func operandType(pkg *Package, e ast.Expr) (types.Type, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return nil, false
	}
	return tv.Type, tv.Value != nil
}

// checkUnitConversion enforces rule 2: T(x) where T is a unit type is
// only legal in T's declaring package, on a constant (typing a
// literal), or when x already has type T.
func checkUnitConversion(pkg *Package, reg *unitRegistry, call *ast.CallExpr, report Reporter) {
	if len(call.Args) != 1 || call.Ellipsis.IsValid() {
		return
	}
	tvFun, ok := pkg.Info.Types[call.Fun]
	if !ok || !tvFun.IsType() {
		return
	}
	u, _, isUnit := reg.unitOf(tvFun.Type)
	if !isUnit {
		return
	}
	argType, argConst := operandType(pkg, call.Args[0])
	if argConst {
		return
	}
	if argType != nil && types.Identical(argType, tvFun.Type) {
		return
	}
	report(call.Pos(), "raw conversion of %s into %s outside its declaring package; use a named constructor so the unit boundary stays auditable",
		typeLabel(argType), unitName(u))
}

// checkTimestampArgs enforces rule 4: no argument bound to a
// timestamp parameter is an untyped constant, unless audited.
func checkTimestampArgs(pkg *Package, reg *unitRegistry, call *ast.CallExpr, audits auditLines, report Reporter) {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || tv.IsType() || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	// A variadic parameter's type is a slice, never a unit, and no
	// function here takes a variadic timestamp.
	params := sig.Params()
	for i, arg := range call.Args {
		if i >= params.Len() {
			break
		}
		u, kind, isUnit := reg.unitOf(params.At(i).Type())
		if !isUnit || kind != kindTimestamp || !untypedConst(pkg, arg) || audits.covers(nil, arg.Pos()) {
			continue
		}
		report(arg.Pos(), "untyped constant passed as a %s timestamp; pass a real clock value or audit it with %s <reason>",
			unitName(u), timestampMarker)
	}
}

// untypedConst reports whether e is built only from literals and
// untyped constants. A typed constant or a conversion names its unit
// and is not flagged.
func untypedConst(pkg *Package, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return untypedConst(pkg, e.X)
	case *ast.BinaryExpr:
		return untypedConst(pkg, e.X) && untypedConst(pkg, e.Y)
	case *ast.Ident:
		return untypedConstObj(pkg.Info.Uses[e])
	case *ast.SelectorExpr:
		return untypedConstObj(pkg.Info.Uses[e.Sel])
	}
	return false
}

func untypedConstObj(obj types.Object) bool {
	c, ok := obj.(*types.Const)
	if !ok {
		return false
	}
	b, ok := c.Type().(*types.Basic)
	return ok && b.Info()&types.IsUntyped != 0
}

func typeLabel(t types.Type) string {
	if t == nil {
		return "a value"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// checkUnitNames enforces rule 3 on one field list entry: a raw
// numeric declaration must not carry a name that claims a unit.
func checkUnitNames(pkg *Package, reg *unitRegistry, role string, field *ast.Field, report Reporter) {
	tv, ok := pkg.Info.Types[field.Type]
	if !ok || tv.Type == nil {
		return
	}
	if _, _, isUnit := reg.unitOf(tv.Type); isUnit {
		return
	}
	basic, ok := tv.Type.(*types.Basic)
	if !ok || basic.Info()&types.IsNumeric == 0 {
		return
	}
	for _, name := range field.Names {
		if name.Name == "_" {
			continue
		}
		if w, claims := claimsUnit(name.Name); claims {
			report(name.Pos(), "%s %q is raw %s but its name (%q) claims a unit; give it a unit type",
				role, name.Name, basic, w)
		}
	}
}

// claimsUnit reports whether an identifier word-splits (camelCase and
// snake_case) to a whole word naming a unit, returning the word.
func claimsUnit(name string) (string, bool) {
	for _, w := range nameWords(name) {
		if unitWords[w] {
			return w, true
		}
	}
	return "", false
}

// nameWords splits an identifier into lowercase words at underscores
// and camelCase boundaries, treating acronym runs (PS, MM) as one word.
func nameWords(s string) []string {
	var words []string
	var cur []rune
	flush := func() {
		if len(cur) > 0 {
			words = append(words, strings.ToLower(string(cur)))
			cur = nil
		}
	}
	runes := []rune(s)
	for i, r := range runes {
		switch {
		case r == '_':
			flush()
		case unicode.IsUpper(r):
			if i > 0 && !unicode.IsUpper(runes[i-1]) {
				flush() // lower→Upper boundary: hitLatency
			} else if i > 0 && i+1 < len(runes) && unicode.IsUpper(runes[i-1]) && unicode.IsLower(runes[i+1]) {
				flush() // acronym→Word boundary: PSValue
			}
			cur = append(cur, r)
		default:
			cur = append(cur, r)
		}
	}
	flush()
	return words
}
