// Command simlint runs the simulator-aware static-analysis pass suite
// (internal/simlint) over this repository. It loads every package in
// the module with go/parser + go/types — no external dependencies —
// and enforces the rules documented in docs/ANALYSIS.md:
//
//	determinism     no wall clock / global rand / env reads in model packages
//	panicmsg        panics in internal packages carry a "pkg: " prefix
//	floatcmp        no ==/!= on floats in result-reporting packages
//	invariantcov    mutating cache methods have CheckInvariants-bracketed tests
//	configvalidate  Config literals in cmd/ and examples/ are validated
//	enumswitch      switches over internal int8 enums are exhaustive or panic
//	unitcheck       simulator quantities flow through dimensional unit types
//	recovercheck    recover() only inside the scheduler's designated recovery helper
//	hotpath         functions reachable from hotpath:root entry points are free of
//	                allocating/indirecting constructs unless audited with hotpath:alloc
//
// Usage:
//
//	go run ./cmd/simlint ./...
//	go run ./cmd/simlint -format json ./...
//	go run ./cmd/simlint -rules unitcheck,determinism ./...
//	go run ./cmd/simlint -disable floatcmp,invariantcov ./...
//	go run ./cmd/simlint -list
//
// With -format json each diagnostic is one JSON object per line
// (NDJSON) with keys file, line, col, pass, message — grep- and
// jq-friendly for CI annotation. The default -format text prints
// file:line:col: [pass] message.
//
// Package patterns are accepted for familiarity but the whole module
// containing the working directory is always analyzed. Exit status is
// 0 when clean, 1 when any rule reports a diagnostic, 2 on load
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cmpnurapid/internal/simlint"
)

// jsonDiag is the NDJSON shape of one diagnostic.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		format  = fs.String("format", "text", "diagnostic output format: text or json (NDJSON, one object per line)")
		rules   = fs.String("rules", "", "comma-separated rule names to run exclusively (default: all)")
		disable = fs.String("disable", "", "comma-separated rule names to skip")
		list    = fs.Bool("list", false, "list rules and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "simlint: unknown -format %q (want text or json)\n", *format)
		return 2
	}

	analyzers := simlint.DefaultAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	if *rules != "" {
		byName := map[string]*simlint.Analyzer{}
		var valid []string
		for _, a := range analyzers {
			byName[a.Name] = a
			valid = append(valid, a.Name)
		}
		var selected []*simlint.Analyzer
		for _, name := range strings.Split(*rules, ",") {
			if name = strings.TrimSpace(name); name == "" {
				continue
			}
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "simlint: unknown rule %q in -rules (valid: %s)\n",
					name, strings.Join(valid, ", "))
				return 2
			}
			selected = append(selected, a)
		}
		analyzers = selected
	}

	disabled := map[string]bool{}
	for _, name := range strings.Split(*disable, ",") {
		if name = strings.TrimSpace(name); name != "" {
			disabled[name] = true
		}
	}
	var enabled []*simlint.Analyzer
	for _, a := range analyzers {
		if disabled[a.Name] {
			delete(disabled, a.Name)
			continue
		}
		enabled = append(enabled, a)
	}
	for name := range disabled {
		fmt.Fprintf(stderr, "simlint: unknown rule %q in -disable\n", name)
		return 2
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}
	prog, err := simlint.Load(root)
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}
	diags := prog.Run(enabled)

	switch *format {
	case "json":
		enc := json.NewEncoder(stdout) // one compact object per line
		for _, d := range diags {
			err := enc.Encode(jsonDiag{
				File: relToRoot(root, d.Pos.Filename), Line: d.Pos.Line, Col: d.Pos.Column,
				Pass: d.Rule, Message: d.Message,
			})
			if err != nil {
				fmt.Fprintln(stderr, "simlint:", err)
				return 2
			}
		}
	default:
		for _, d := range diags {
			pos := d.Pos
			pos.Filename = relToRoot(root, pos.Filename)
			fmt.Fprintf(stdout, "%s: [%s] %s\n", pos, d.Rule, d.Message)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// moduleRoot walks upward from the working directory to the nearest
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

func relToRoot(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
