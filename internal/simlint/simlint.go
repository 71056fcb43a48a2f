// Package simlint is a simulator-aware static-analysis pass suite for
// this repository. The Go compiler cannot check the properties the
// reproduction's credibility rests on — cycle-accurate determinism
// (same seed ⇒ bit-identical Figure 5/7 numbers), the "pkg: " panic
// convention that makes invariant violations attributable, exact
// float comparisons that silently mask drift, and invariant-checker
// coverage of every mutating cache operation — so simlint enforces
// them at analysis time, before a full reproduction run ever starts.
//
// The engine is built only on the standard library (go/parser, go/ast,
// go/types with the source importer), matching the repository's
// zero-dependency go.mod. Each rule is an independent Analyzer with
// its own file and table-driven tests on synthetic source fixtures;
// cmd/simlint wires them into a CLI that scripts/check.sh and CI run
// on every change. See docs/ANALYSIS.md for the rule catalogue.
package simlint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Diagnostic is one rule violation at a source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Rule, d.Message)
}

// Package is one loaded, parsed and (best-effort) type-checked package
// of the module under analysis.
type Package struct {
	Path string // import path, e.g. "cmpnurapid/internal/core"
	Rel  string // slash path relative to the module root; "" for the root package
	Name string // package name
	Dir  string

	Files     []*ast.File // non-test sources, type-checked
	TestFiles []*ast.File // _test.go sources, parsed but not type-checked

	Types      *types.Package
	Info       *types.Info
	TypeErrors []error // non-fatal: rules degrade to syntax-only checks
}

// UnderRel reports whether the package sits at or below any of the
// given module-relative paths ("internal/core", "cmd", ...).
func (p *Package) UnderRel(prefixes ...string) bool {
	for _, pre := range prefixes {
		if p.Rel == pre || strings.HasPrefix(p.Rel, pre+"/") {
			return true
		}
	}
	return false
}

// Program is a fully loaded module.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	Root       string
	Packages   []*Package // sorted by import path
	byRel      map[string]*Package
}

// ByRel returns the package at the given module-relative path, or nil.
func (p *Program) ByRel(rel string) *Package { return p.byRel[rel] }

// Reporter records one diagnostic for the analyzer that owns it.
type Reporter func(pos token.Pos, format string, args ...any)

// Analyzer is one independently runnable and testable rule.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Program, Reporter)
}

// The source importer re-type-checks any standard-library package it
// is asked for from GOROOT source. Sharing one importer (and therefore
// one FileSet) across Load calls means the fixture-heavy rule tests
// and the self-lint gate pay that cost once per process, not per load.
// loadMu serializes whole loads: both vars are only touched while it
// is held, and each load hands out through Program.Fset / progImporter
// the references it captured inside its own critical section.
var (
	loadMu sync.Mutex
	// synccheck:guardedby loadMu
	sharedFset = token.NewFileSet()
	// synccheck:guardedby loadMu
	stdlibImport types.ImporterFrom
)

// Load parses and type-checks every package under root, which must be
// a module root (contain go.mod). Type errors are collected per
// package rather than failing the load, so analysis degrades
// gracefully on broken trees.
func Load(root string) (*Program, error) {
	loadMu.Lock()
	defer loadMu.Unlock()

	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:       sharedFset,
		ModulePath: modPath,
		Root:       root,
		byRel:      map[string]*Package{},
	}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		pkg, err := parseDir(prog, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			prog.Packages = append(prog.Packages, pkg)
			prog.byRel[pkg.Rel] = pkg
		}
	}
	sort.Slice(prog.Packages, func(i, j int) bool {
		return prog.Packages[i].Path < prog.Packages[j].Path
	})

	if stdlibImport == nil {
		stdlibImport = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)
	}
	checkAll(prog)
	return prog, nil
}

// Run executes the analyzers over the program and returns their
// diagnostics sorted by position.
func (p *Program) Run(analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a := a
		report := func(pos token.Pos, format string, args ...any) {
			diags = append(diags, Diagnostic{
				Pos:     p.Fset.Position(pos),
				Rule:    a.Name,
				Message: fmt.Sprintf(format, args...),
			})
		}
		a.Run(p, report)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags
}

// DefaultAnalyzers returns the full pass suite with this repository's
// standard configuration.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewDeterminism(DefaultRestrictedPaths),
		NewPanicMsg(),
		NewFloatCompare(DefaultFloatComparePaths),
		NewInvariantCoverage(DefaultCoverageTargets),
		NewConfigValidate(),
		NewEnumSwitch(),
		NewUnitCheck(),
		NewRecoverCheck(DefaultRecoverAllowed),
		NewHotpath(),
		NewSyncCheck(),
	}
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("simlint: not a module root: %w", err)
	}
	m := moduleRe.FindSubmatch(data)
	if m == nil {
		return "", fmt.Errorf("simlint: no module directive in %s", gomod)
	}
	return string(m[1]), nil
}

// packageDirs walks the module and returns every directory containing
// Go files, skipping vendored, hidden and testdata trees.
func packageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor" || name == "node_modules") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

func parseDir(prog *Program, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(prog.Root, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		rel = ""
	}
	path := prog.ModulePath
	if rel != "" {
		path += "/" + rel
	}
	pkg := &Package{Path: path, Rel: rel, Dir: dir}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		file, err := parser.ParseFile(prog.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if !inDefaultBuild(file) {
			continue
		}
		if strings.HasSuffix(e.Name(), "_test.go") {
			pkg.TestFiles = append(pkg.TestFiles, file)
		} else {
			pkg.Files = append(pkg.Files, file)
		}
	}
	if len(pkg.Files) == 0 && len(pkg.TestFiles) == 0 {
		return nil, nil
	}
	if len(pkg.Files) > 0 {
		pkg.Name = pkg.Files[0].Name.Name
	} else {
		pkg.Name = strings.TrimSuffix(pkg.TestFiles[0].Name.Name, "_test")
	}
	return pkg, nil
}

// inDefaultBuild reports whether file's build constraint (if any) is
// satisfied by the default build configuration — host GOOS/GOARCH, the
// gc toolchain, and no custom tags. Files gated behind custom tags
// (e.g. a seeded mutant switched on by its own build tag) are
// excluded from the default `go build ./...` and must be excluded here
// too, or the loader would type-check two declarations of the same
// symbol at once. Only `//go:build` lines are recognized; the module
// predates the legacy `// +build` form.
func inDefaultBuild(file *ast.File) bool {
	for _, cg := range file.Comments {
		// Build constraints must precede the package clause.
		if cg.Pos() >= file.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				// Malformed constraint: keep the file and let the
				// type-checker surface whatever is wrong.
				return true
			}
			return expr.Eval(func(tag string) bool {
				return tag == runtime.GOOS || tag == runtime.GOARCH ||
					tag == "gc" || tag == "unix"
			})
		}
	}
	return true
}

// progImporter resolves module-local imports from the in-progress load
// and everything else (the standard library) through the shared source
// importer. It carries its own reference to that importer, captured
// while loadMu was held, so ImportFrom never reads the guarded
// package var outside the lock.
type progImporter struct {
	prog    *Program
	stdlib  types.ImporterFrom
	checked map[string]*types.Package
}

func (i *progImporter) Import(path string) (*types.Package, error) {
	return i.ImportFrom(path, "", 0)
}

func (i *progImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == i.prog.ModulePath || strings.HasPrefix(path, i.prog.ModulePath+"/") {
		if pkg, ok := i.checked[path]; ok {
			return pkg, nil
		}
		return nil, fmt.Errorf("simlint: local package %s not yet type-checked (import cycle?)", path)
	}
	return i.stdlib.ImportFrom(path, dir, mode)
}

// checkAll type-checks every package in local-dependency order.
//
// synccheck:holds loadMu
func checkAll(prog *Program) {
	imp := &progImporter{prog: prog, stdlib: stdlibImport, checked: map[string]*types.Package{}}

	deps := map[string][]string{}
	byPath := map[string]*Package{}
	for _, pkg := range prog.Packages {
		byPath[pkg.Path] = pkg
		for _, f := range pkg.Files {
			for _, spec := range f.Imports {
				ip, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if ip == prog.ModulePath || strings.HasPrefix(ip, prog.ModulePath+"/") {
					deps[pkg.Path] = append(deps[pkg.Path], ip)
				}
			}
		}
	}

	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(path string)
	visit = func(path string) {
		if state[path] != 0 {
			return
		}
		state[path] = 1
		for _, dep := range deps[path] {
			if state[dep] == 0 {
				visit(dep)
			}
		}
		state[path] = 2
		checkPackage(prog, imp, byPath[path])
	}
	for _, pkg := range prog.Packages {
		visit(pkg.Path)
	}
}

func checkPackage(prog *Program, imp *progImporter, pkg *Package) {
	if pkg == nil || len(pkg.Files) == 0 {
		return
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(pkg.Path, prog.Fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
	imp.checked[pkg.Path] = tpkg
}

// --- shared helpers for rules ---

// usesPackage reports whether sel is a selection on the named import
// path (e.g. time.Now with pkgPath "time"), using type information
// when present and falling back to the file's import table.
func usesPackage(pkg *Package, file *ast.File, sel *ast.SelectorExpr, pkgPath string) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	if pkg.Info != nil {
		if obj, ok := pkg.Info.Uses[id]; ok {
			pn, ok := obj.(*types.PkgName)
			return ok && pn.Imported().Path() == pkgPath
		}
	}
	return id.Name == localImportName(file, pkgPath)
}

// localImportName returns the name pkgPath is imported under in file,
// or "" if it is not imported.
func localImportName(file *ast.File, pkgPath string) string {
	for _, spec := range file.Imports {
		p, err := strconv.Unquote(spec.Path.Value)
		if err != nil || p != pkgPath {
			continue
		}
		if spec.Name != nil {
			return spec.Name.Name
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}

// constString resolves expr to a compile-time string constant when
// possible: a literal, a concatenation with a literal head, or (with
// type information) any string-typed constant expression.
func constString(pkg *Package, expr ast.Expr) (string, bool) {
	if pkg.Info != nil {
		if tv, ok := pkg.Info.Types[expr]; ok && tv.Value != nil {
			if s, err := strconv.Unquote(tv.Value.ExactString()); err == nil {
				return s, true
			}
			return tv.Value.ExactString(), true
		}
	}
	switch e := expr.(type) {
	case *ast.ParenExpr:
		return constString(pkg, e.X)
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			return constString(pkg, e.X)
		}
	case *ast.BasicLit:
		if e.Kind == token.STRING {
			if s, err := strconv.Unquote(e.Value); err == nil {
				return s, true
			}
		}
	}
	return "", false
}

// rootIdent unwraps selector/index/star/paren chains to the base
// identifier, e.g. c.dgroups[g].frames → c.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}
