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
// TestSelfLint runs the whole suite over this repository on every
// `go test ./...`. See docs/ANALYSIS.md for the rule catalogue.
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
	loadMu       sync.Mutex
	sharedFset   = token.NewFileSet() // guarded by loadMu
	stdlibImport types.ImporterFrom   // guarded by loadMu
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

// checkAll type-checks every package in local-dependency order. The
// caller (Load) holds loadMu.
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

// markerReason extracts the reason from a `marker <reason>` doc line.
func markerReason(doc *ast.CommentGroup, marker string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, found := strings.CutPrefix(text, marker); found {
			if rest == "" || strings.HasPrefix(rest, " ") {
				return strings.TrimSpace(rest), true
			}
		}
	}
	return "", false
}

// auditLines records where a rule's audit marker (for example
// `hotpath:alloc <reason>`) silences its findings: on the marker's own
// line, the line directly below it, and anywhere in a function whose
// doc comment carries it.
type auditLines struct {
	marker string
	fset   *token.FileSet
	lines  map[string]map[int]bool // filename -> marker lines
}

// collectAuditLines records the line of every marker comment in the
// module, reporting each marker that gives no reason.
func collectAuditLines(prog *Program, marker string, report Reporter) auditLines {
	a := auditLines{marker: marker, fset: prog.Fset, lines: map[string]map[int]bool{}}
	for _, pkg := range prog.Packages {
		if pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, found := strings.CutPrefix(text, marker)
					if !found {
						continue
					}
					if strings.TrimSpace(rest) == "" {
						report(c.Pos(), "%s marker is missing a reason", marker)
						continue
					}
					at := prog.Fset.Position(c.Pos())
					if a.lines[at.Filename] == nil {
						a.lines[at.Filename] = map[int]bool{}
					}
					a.lines[at.Filename][at.Line] = true
				}
			}
		}
	}
	return a
}

// covers reports whether a finding at pos, inside a function with the
// given doc comment (nil for none), is audited.
func (a auditLines) covers(doc *ast.CommentGroup, pos token.Pos) bool {
	if _, whole := markerReason(doc, a.marker); whole {
		return true
	}
	at := a.fset.Position(pos)
	lines := a.lines[at.Filename]
	return lines[at.Line] || lines[at.Line-1]
}

// moduleFunc is one module-local function declaration with a body.
type moduleFunc struct {
	obj  *types.Func // origin object: the call-graph node
	pkg  *Package
	file *ast.File
	decl *ast.FuncDecl
}

// funcIndex holds every module-local function declaration with a body,
// in source order and by origin object.
type funcIndex struct {
	list  []*moduleFunc
	byObj map[*types.Func]*moduleFunc
}

func indexFuncs(prog *Program) funcIndex {
	ix := funcIndex{byObj: map[*types.Func]*moduleFunc{}}
	for _, pkg := range prog.Packages {
		if pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := &moduleFunc{obj: obj.Origin(), pkg: pkg, file: file, decl: fd}
				ix.list = append(ix.list, fn)
				ix.byObj[fn.obj] = fn
			}
		}
	}
	return ix
}

// walk visits every module-local function statically reachable from
// roots, breadth-first and once each, roots first. visit scans one
// function and returns the static callees that extend the walk; root
// is the root through which the walk first reached it. Callees outside
// the module (the standard library) end the walk.
func (ix funcIndex) walk(roots []*types.Func, visit func(fn *moduleFunc, root *types.Func) []*types.Func) {
	rootOf := map[*types.Func]*types.Func{}
	var queue []*types.Func
	enqueue := func(fn, root *types.Func) {
		if _, seen := rootOf[fn]; seen || ix.byObj[fn] == nil {
			return
		}
		rootOf[fn] = root
		queue = append(queue, fn)
	}
	for _, r := range roots {
		enqueue(r, r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		root := rootOf[fn]
		for _, callee := range visit(ix.byObj[fn], root) {
			enqueue(callee, root)
		}
	}
}

// staticCallee resolves a call to a concrete function or method the
// call graph can follow. Interface methods and calls through function
// values return nil: they dispatch dynamically, which is why each
// concrete implementation of a hot interface is its own hotpath root.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f.Origin()
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil // method value/expr or field read, not a direct call
			}
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				if _, iface := recv.Type().Underlying().(*types.Interface); iface {
					return nil
				}
			}
			return f.Origin()
		}
		// Package-qualified call: pkg.F(...).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f.Origin()
		}
	}
	return nil
}
