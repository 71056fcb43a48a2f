package mutcheck

import (
	"go/ast"
	"go/format"
	"go/token"
	"strconv"
	"strings"
)

// An Operator is one class of single-edit fault. Match decides whether
// a node (with its ancestor path, root first) is a candidate; Apply
// mutates the node in place and returns an undo func so enumeration
// can render the mutated form without keeping a dirty tree.
type Operator struct {
	Name string
	Doc  string
	// Match reports whether n is a mutation candidate. path holds n's
	// ancestors, outermost first, excluding n itself.
	Match func(path []ast.Node, n ast.Node) bool
	// Apply mutates n in place and returns an undo.
	Apply func(n ast.Node) (undo func())
}

// Operators is the fixed operator suite, in enumeration order. A
// site's identity names its operator, so adding or removing one leaves
// the other operators' sites alone.
var Operators = []*Operator{
	opRelSwap,
	opOffByOne,
	opBoolNegate,
	opBranchDel,
}

// relswap: boundary-condition faults. < ↔ <=, > ↔ >=, == ↔ !=.
var relSwapped = map[token.Token]token.Token{
	token.LSS: token.LEQ,
	token.LEQ: token.LSS,
	token.GTR: token.GEQ,
	token.GEQ: token.GTR,
	token.EQL: token.NEQ,
	token.NEQ: token.EQL,
}

var opRelSwap = &Operator{
	Name: "relswap",
	Doc:  "swap a relational operator with its boundary neighbour (< <-> <=, > <-> >=, == <-> !=)",
	Match: func(path []ast.Node, n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		_, ok = relSwapped[b.Op]
		return ok
	},
	Apply: func(n ast.Node) func() {
		b := n.(*ast.BinaryExpr)
		old := b.Op
		b.Op = relSwapped[old]
		return func() { b.Op = old }
	},
}

// comparisonOps are the operators that make a BinaryExpr a comparison:
// the off-by-one context.
var comparisonOps = map[token.Token]bool{
	token.LSS: true, token.LEQ: true, token.GTR: true,
	token.GEQ: true, token.EQL: true, token.NEQ: true,
}

// intLitInContext reports whether the integer literal at the end of
// path participates in a comparison or in index arithmetic — the two
// places the paper-reproduction code hides fence-post constants.
// Scanning stops at expression boundaries (calls, composite literals,
// array lengths, statements) so unrelated constants stay untouched.
func intLitInContext(path []ast.Node, lit *ast.BasicLit) bool {
	child := ast.Node(lit)
	for i := len(path) - 1; i >= 0; i-- {
		switch p := path[i].(type) {
		case *ast.BinaryExpr:
			if comparisonOps[p.Op] {
				return true
			}
		case *ast.IndexExpr:
			return p.Index == child
		case *ast.ParenExpr, *ast.UnaryExpr:
			// transparent wrappers — keep climbing
		case *ast.CallExpr, *ast.CompositeLit, *ast.ArrayType, *ast.KeyValueExpr:
			return false
		default:
			if _, isStmt := p.(ast.Stmt); isStmt {
				return false
			}
			if _, isDecl := p.(ast.Decl); isDecl {
				return false
			}
		}
		child = path[i]
	}
	return false
}

var opOffByOne = &Operator{
	Name: "offbyone",
	Doc:  "add one to an integer literal used in a comparison or in index arithmetic",
	Match: func(path []ast.Node, n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.INT {
			return false
		}
		if _, err := strconv.ParseInt(lit.Value, 0, 32); err != nil {
			return false
		}
		return intLitInContext(path, lit)
	},
	Apply: func(n ast.Node) func() {
		lit := n.(*ast.BasicLit)
		old := lit.Value
		v, _ := strconv.ParseInt(old, 0, 64)
		lit.Value = strconv.FormatInt(v+1, 10)
		return func() { lit.Value = old }
	},
}

var opBoolNegate = &Operator{
	Name: "boolnegate",
	Doc:  "negate the controlling condition of an if or for statement",
	Match: func(path []ast.Node, n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IfStmt:
			return s.Cond != nil
		case *ast.ForStmt:
			return s.Cond != nil
		}
		return false
	},
	Apply: func(n ast.Node) func() {
		neg := func(c ast.Expr) ast.Expr {
			return &ast.UnaryExpr{OpPos: c.Pos(), Op: token.NOT, X: &ast.ParenExpr{Lparen: c.Pos(), X: c, Rparen: c.End()}}
		}
		switch s := n.(type) {
		case *ast.IfStmt:
			old := s.Cond
			s.Cond = neg(old)
			return func() { s.Cond = old }
		case *ast.ForStmt:
			old := s.Cond
			s.Cond = neg(old)
			return func() { s.Cond = old }
		}
		panic("mutcheck: boolnegate applied to non-if/for node")
	},
}

var opBranchDel = &Operator{
	Name: "branchdel",
	Doc:  "delete the body of an if statement (branch arm becomes a no-op)",
	Match: func(path []ast.Node, n ast.Node) bool {
		s, ok := n.(*ast.IfStmt)
		return ok && s.Body != nil && len(s.Body.List) > 0
	},
	Apply: func(n ast.Node) func() {
		s := n.(*ast.IfStmt)
		old := s.Body.List
		s.Body.List = nil
		return func() { s.Body.List = old }
	},
}

// renderNode formats a node compactly for Before/After display:
// whitespace runs collapse to single spaces and long renderings are
// truncated. Display only — application formats the whole file.
func renderNode(fset *token.FileSet, n ast.Node) string {
	var sb strings.Builder
	if err := format.Node(&sb, fset, n); err != nil {
		return "<unprintable>"
	}
	s := strings.Join(strings.Fields(sb.String()), " ")
	const max = 120
	if len(s) > max {
		s = s[:max] + "..."
	}
	return s
}
