package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// DefaultRestrictedPaths are the simulator-model packages in which any
// nondeterministic input would silently skew reproduction numbers:
// same seed must give bit-identical Figure 5/7 results.
var DefaultRestrictedPaths = []string{
	"internal/core",
	"internal/cmpsim",
	"internal/l2",
	"internal/bus",
	"internal/coherence",
	"internal/workload",
}

// bannedTimeFuncs are wall-clock sources; time.Duration constants and
// arithmetic remain allowed.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"Sleep": true,
}

// bannedOSFuncs make model behaviour depend on the process
// environment.
var bannedOSFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true,
}

// emitCalls are output sinks whose call order is observable: reaching
// one from inside a map iteration makes the emitted order depend on Go
// map randomization.
var emitFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}
var emitMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteRune": true, "WriteByte": true,
	"Row": true, "Rowf": true,
}

// NewDeterminism builds the determinism rule: inside the restricted
// simulator packages there must be no wall-clock reads (time.Now and
// friends), no global math/rand use (randomness must flow through
// internal/rng's seeded streams), no environment reads, and no output
// emitted while iterating a map (Go randomizes iteration order).
func NewDeterminism(restricted []string) *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc: "simulator packages must be bit-reproducible: no wall clock, " +
			"global math/rand, environment reads, or map-iteration-ordered output",
		Run: func(prog *Program, report Reporter) {
			for _, pkg := range prog.Packages {
				if !pkg.UnderRel(restricted...) {
					continue
				}
				for _, file := range pkg.Files {
					checkDeterminismFile(pkg, file, report)
				}
			}
		},
	}
}

func checkDeterminismFile(pkg *Package, file *ast.File, report Reporter) {
	for _, spec := range file.Imports {
		path, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		if path == "math/rand" || path == "math/rand/v2" {
			report(spec.Pos(), "import of %s: randomness must flow through internal/rng so runs are seed-reproducible", path)
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if usesPackage(pkg, n, "time") && bannedTimeFuncs[n.Sel.Name] {
				report(n.Pos(), "time.%s reads the wall clock; simulator state must depend only on the seed", n.Sel.Name)
			}
			if usesPackage(pkg, n, "os") && bannedOSFuncs[n.Sel.Name] {
				report(n.Pos(), "os.%s makes model behaviour depend on the process environment", n.Sel.Name)
			}
		case *ast.RangeStmt:
			if isMapType(pkg, n.X) {
				if pos, name, found := findEmit(pkg, n.Body); found {
					report(pos, "%s emits output inside a map iteration; map order is randomized — sort the keys first", name)
				}
			}
		}
		return true
	})
}

func isMapType(pkg *Package, expr ast.Expr) bool {
	_, isMap := pkg.Info.TypeOf(expr).Underlying().(*types.Map)
	return isMap
}

// findEmit returns the first order-observable output call in body: a
// fmt print function or a writer/table method.
func findEmit(pkg *Package, body *ast.BlockStmt) (pos token.Pos, name string, found bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if usesPackage(pkg, sel, "fmt") && emitFuncs[sel.Sel.Name] {
			pos, name, found = call.Pos(), "fmt."+sel.Sel.Name, true
			return false
		}
		if emitMethods[sel.Sel.Name] && !isPackageSelector(pkg, sel) {
			pos, name, found = call.Pos(), "."+sel.Sel.Name, true
			return false
		}
		return true
	})
	return pos, name, found
}

func isPackageSelector(pkg *Package, sel *ast.SelectorExpr) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := pkg.Info.Uses[id].(*types.PkgName)
	return isPkg
}
