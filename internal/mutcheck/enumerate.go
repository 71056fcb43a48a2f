package mutcheck

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// candidate is one matched (operator, node) pair inside a single file.
type candidate struct {
	op    *Operator
	fn    string // enclosing top-level declaration
	index int    // per (file, fn, operator) ordinal
	node  ast.Node
}

// enumerateFile walks f in lexical order and returns every operator
// candidate. The walk order — and therefore each candidate's index
// within its declaration — is part of the deterministic site identity,
// shared by enumeration and application.
func enumerateFile(f *ast.File) []candidate {
	counts := map[string]int{}
	var cands []candidate
	var path []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			path = path[:len(path)-1]
			return false
		}
		for _, op := range Operators {
			if op.Match(path, n) {
				fn := declName(path)
				key := fn + " " + op.Name
				cands = append(cands, candidate{op: op, fn: fn, index: counts[key], node: n})
				counts[key]++
			}
		}
		path = append(path, n)
		return true
	})
	return cands
}

// declName names the top-level declaration enclosing a node, given the
// node's ancestors (path[0] is the file, path[1] the declaration): F,
// Recv.Method, or the first name of a package-level var/const/type
// spec. Package scope makes these unique within a file, save for
// multiple init functions, which share one ordinal sequence.
func declName(path []ast.Node) string {
	if len(path) > 1 {
		if fd, ok := path[1].(*ast.FuncDecl); ok {
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				return recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			return fd.Name.Name
		}
	}
	if len(path) > 2 {
		switch spec := path[2].(type) {
		case *ast.ValueSpec:
			return spec.Names[0].Name
		case *ast.TypeSpec:
			return spec.Name.Name
		}
	}
	return "_"
}

// recvName returns the base type name of a method receiver: T for T,
// *T, T[P] and *T[P].
func recvName(t ast.Expr) string {
	for {
		switch e := t.(type) {
		case *ast.Ident:
			return e.Name
		case *ast.StarExpr:
			t = e.X
		case *ast.ParenExpr:
			t = e.X
		case *ast.IndexExpr:
			t = e.X
		case *ast.IndexListExpr:
			t = e.X
		default:
			return "_"
		}
	}
}

// EnumeratePackage parses every non-test Go file in the package
// directory pkgDir (relative to root) that `go build` compiles, and
// returns all mutation sites in deterministic order. Files the build
// excludes — build constraints, GOOS/GOARCH file-name suffixes — are
// not in the binaries the target tests run, so mutating them proves
// nothing.
func EnumeratePackage(root, pkgDir string) ([]Site, error) {
	dir := filepath.Join(root, filepath.FromSlash(pkgDir))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("mutcheck: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("mutcheck: %w", err)
		} else if ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var sites []Site
	for _, name := range names {
		rel := pkgDir + "/" + name
		if pkgDir == "." || pkgDir == "" {
			rel = name
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("mutcheck: %w", err)
		}
		for _, c := range enumerateFile(f) {
			pos := fset.Position(c.node.Pos())
			before := renderNode(fset, c.node)
			undo := c.op.Apply(c.node)
			after := renderNode(fset, c.node)
			undo()
			sites = append(sites, Site{
				File:   rel,
				Line:   pos.Line,
				Col:    pos.Column,
				Func:   c.fn,
				Op:     c.op.Name,
				Index:  c.index,
				Before: before,
				After:  after,
			})
		}
	}
	return sites, nil
}

// Mutate parses the original file bytes, applies the site's mutation,
// and returns the formatted mutant source. Locating the candidate by
// (declaration, operator, index) re-runs the same walk as enumeration,
// so the two always agree on which node is meant.
func Mutate(src []byte, site Site) ([]byte, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, site.File, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("mutcheck: %w", err)
	}
	for _, c := range enumerateFile(f) {
		if c.fn == site.Func && c.op.Name == site.Op && c.index == site.Index {
			c.op.Apply(c.node)
			var buf bytes.Buffer
			if err := format.Node(&buf, fset, f); err != nil {
				return nil, fmt.Errorf("mutcheck: format %s: %w", site.ID(), err)
			}
			return buf.Bytes(), nil
		}
	}
	return nil, fmt.Errorf("mutcheck: site %s not found (stale selection?)", site.ID())
}
