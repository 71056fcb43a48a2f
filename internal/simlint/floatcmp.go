package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DefaultFloatComparePaths are the packages that turn simulation
// counters into the paper's reported numbers; an exact float
// comparison there (e.g. a speedup == 1.0 guard) silently
// misclassifies results that differ in the last ulp.
var DefaultFloatComparePaths = []string{
	"internal/experiments",
	"internal/stats",
}

// NewFloatCompare builds the float-compare rule: no == or != between
// floating-point operands in the result-reporting packages. Ordered
// comparisons (<, >=, ...) stay allowed — they are how thresholds are
// meant to be written.
func NewFloatCompare(paths []string) *Analyzer {
	return &Analyzer{
		Name: "floatcmp",
		Doc:  "no ==/!= on floating-point operands in result-reporting packages",
		Run: func(prog *Program, report Reporter) {
			for _, pkg := range prog.Packages {
				if !pkg.UnderRel(paths...) {
					continue
				}
				for _, file := range pkg.Files {
					checkFloatFile(pkg, file, report)
				}
			}
		},
	}
}

func checkFloatFile(pkg *Package, file *ast.File, report Reporter) {
	ast.Inspect(file, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if isFloat(pkg, be.X) || isFloat(pkg, be.Y) {
			report(be.Pos(), "floating-point %s comparison; compare with an explicit tolerance or restructure around integer counters", be.Op)
		}
		return true
	})
}

func isFloat(pkg *Package, expr ast.Expr) bool {
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
