// Command mutcheck runs the AST-driven mutation-testing engine
// (internal/mutcheck) over this repository's hot simulator packages
// and reports the kill ratio — the measured fraction of small seeded
// faults the test suite catches. See docs/ANALYSIS.md, "Mutation
// testing (mutcheck)".
//
// Usage:
//
//	go run ./cmd/mutcheck                          # quick tier, text summary
//	go run ./cmd/mutcheck -write MUTATION_quick.json
//	go run ./cmd/mutcheck -diff MUTATION_quick.json
//	go run ./cmd/mutcheck -full -pkgs internal/cache,internal/l2
//	go run ./cmd/mutcheck -list
//
// The quick tier (default) caps mutants per package and runs the
// target tests with -short; CI runs it and diffs the committed
// MUTATION_quick.json — the kill ratio may rise but never fall. -full
// enumerates every site for local audits. Surviving mutants are
// printed with file:line, operator, and the exact before => after
// diff; a survivor not allowlisted in MUTATION_allow (with a
// mandatory `mutcheck:survives <reason>`) fails the run.
//
// Exit status: 0 clean, 1 reason-less survivor or baseline
// regression, 2 usage/load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cmpnurapid/internal/mutcheck"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mutcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		full    = fs.Bool("full", false, "enumerate every mutation site (local audit tier)")
		capN    = fs.Int("cap", 8, "quick-tier mutants per package (ignored with -full)")
		pkgs    = fs.String("pkgs", "", "comma-separated package dirs to mutate (default: all hot packages)")
		write   = fs.String("write", "", "write the JSON report to this file")
		diff    = fs.String("diff", "", "diff the run against this committed baseline (kill ratio may rise, never fall)")
		allowF  = fs.String("allow", "MUTATION_allow", "allowlist file of equivalent mutants (mutcheck:survives <reason>); a relative path is taken from the module root")
		shadow  = fs.String("shadow", "", "shadow copy directory (default: under the system temp dir; reuse keeps builds cached)")
		timeout = fs.Duration("timeout", 60*time.Second, "go test -timeout per mutant (runaway mutants self-kill)")
		list    = fs.Bool("list", false, "list mutation operators and hot packages, then exit")
		quiet   = fs.Bool("quiet", false, "suppress per-mutant progress on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *write != "" && *diff != "" {
		fmt.Fprintln(stderr, "mutcheck: -write and -diff are mutually exclusive")
		return 2
	}
	if !*full && *capN <= 0 {
		fmt.Fprintln(stderr, "mutcheck: -cap must be positive in quick tier (use -full for everything)")
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "operators:")
		for _, op := range mutcheck.Operators {
			fmt.Fprintf(stdout, "  %-11s %s\n", op.Name, op.Doc)
		}
		fmt.Fprintln(stdout, "packages (with their killing test targets):")
		for _, pkg := range mutcheck.PackageNames() {
			fmt.Fprintf(stdout, "  %-19s %s\n", pkg, strings.Join(mutcheck.DefaultPackages[pkg], " "))
		}
		return 0
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "mutcheck:", err)
		return 2
	}

	packages := mutcheck.DefaultPackages
	if *pkgs != "" {
		packages = map[string][]string{}
		for _, name := range strings.Split(*pkgs, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			targets, ok := mutcheck.DefaultPackages[name]
			if !ok {
				fmt.Fprintf(stderr, "mutcheck: unknown package %q in -pkgs (valid: %s)\n",
					name, strings.Join(mutcheck.PackageNames(), ", "))
				return 2
			}
			packages[name] = targets
		}
	}

	allowPath := *allowF
	if !filepath.IsAbs(allowPath) {
		allowPath = filepath.Join(root, allowPath)
	}
	allow, err := mutcheck.LoadAllowlist(allowPath)
	if err != nil {
		fmt.Fprintln(stderr, "mutcheck:", err)
		return 2
	}

	// Read the baseline before the campaign: a missing or corrupt
	// file should fail in milliseconds, not after minutes of mutant
	// runs.
	var base *mutcheck.Report
	if *diff != "" {
		base, err = readReport(*diff)
		if err != nil {
			fmt.Fprintln(stderr, "mutcheck:", err)
			return 2
		}
	}

	cfg := mutcheck.Config{
		Root:        root,
		Packages:    packages,
		Shadow:      *shadow,
		Short:       true,
		TestTimeout: *timeout,
		Allow:       allow,
	}
	if !*full {
		cfg.Cap = *capN
	}
	if !*quiet {
		cfg.Progress = stderr
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	rep, err := mutcheck.Run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "mutcheck:", err)
		return 2
	}

	code := 0
	for _, s := range rep.Unallowlisted() {
		fmt.Fprintf(stdout, "SURVIVED %s [%s]\n  - %s\n  + %s\n  (add a killing test, or allowlist in %s with `%s mutcheck:survives <reason>`)\n",
			s.ID, s.Op, s.Before, s.After, *allowF, s.ID)
		code = 1
	}

	switch {
	case *write != "":
		data, err := rep.MarshalIndent()
		if err != nil {
			fmt.Fprintln(stderr, "mutcheck:", err)
			return 2
		}
		if err := os.WriteFile(*write, data, 0o644); err != nil {
			fmt.Fprintln(stderr, "mutcheck:", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s: %s\n", *write, summary(rep))
	case *diff != "":
		if failures := mutcheck.Compare(base, rep, stdout); failures > 0 {
			fmt.Fprintf(stdout, "FAIL: %d regression(s) vs %s (refresh with `go run ./cmd/mutcheck -write %s` if intended)\n",
				failures, *diff, *diff)
			return 1
		}
		fmt.Fprintf(stdout, "ok: %s (vs %s)\n", summary(rep), *diff)
	default:
		fmt.Fprintln(stdout, summary(rep))
		for _, p := range rep.Packages {
			fmt.Fprintf(stdout, "  %-19s %3d/%3d killed (%.0f%%), %d survived (%d allowlisted), %d stillborn, %d sites\n",
				p.Package, p.Killed, p.Killed+p.Survived, 100*p.KillRatio,
				p.Survived, p.Allowlisted, p.Stillborn, p.Sites)
		}
	}
	return code
}

func summary(rep *mutcheck.Report) string {
	t := rep.Total
	return fmt.Sprintf("%s tier: %d/%d mutants killed (%.1f%% kill ratio), %d survived (%d allowlisted), %d stillborn, %d sites enumerated",
		rep.Tier, t.Killed, t.Killed+t.Survived, 100*t.KillRatio, t.Survived, t.Allowlisted, t.Stillborn, t.Sites)
}

func readReport(path string) (*mutcheck.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return mutcheck.UnmarshalReport(data)
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
