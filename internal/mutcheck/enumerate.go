package mutcheck

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// candidate is one matched (operator, node) pair inside a single file.
type candidate struct {
	op    *Operator
	index int // per (file, operator) ordinal
	node  ast.Node
}

// enumerateFile walks f in lexical order and returns every operator
// candidate. The walk order — and therefore each candidate's index —
// is part of the deterministic site identity, shared by enumeration
// and application.
func enumerateFile(f *ast.File) []candidate {
	counts := make(map[string]int, len(Operators))
	var cands []candidate
	var path []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			path = path[:len(path)-1]
			return false
		}
		for _, op := range Operators {
			if op.Match(path, n) {
				cands = append(cands, candidate{op: op, index: counts[op.Name], node: n})
				counts[op.Name]++
			}
		}
		path = append(path, n)
		return true
	})
	return cands
}

// EnumeratePackage parses every non-test Go file in the package
// directory pkgDir (relative to root) that is part of the default
// build, and returns all mutation sites in deterministic order.
func EnumeratePackage(root, pkgDir string) ([]Site, error) {
	dir := filepath.Join(root, filepath.FromSlash(pkgDir))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("mutcheck: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".go" ||
			len(name) > len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go" {
			continue
		}
		names = append(names, name)
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
		if !inDefaultBuild(f) {
			// Files gated behind custom tags (e.g. a seeded mutant
			// switched on by its own build tag) are not in the build
			// the target tests compile, so mutating them proves
			// nothing.
			continue
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
// (operator, index) re-runs the same walk as enumeration, so the two
// always agree on which node is meant.
func Mutate(src []byte, site Site) ([]byte, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, site.File, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("mutcheck: %w", err)
	}
	for _, c := range enumerateFile(f) {
		if c.op.Name == site.Op && c.index == site.Index {
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

// inDefaultBuild reports whether the file's //go:build constraint (if
// any) is satisfied by the default build configuration — the same
// rule internal/simlint's loader applies.
func inDefaultBuild(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
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
