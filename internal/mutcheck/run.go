package mutcheck

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Config drives one mutation run.
type Config struct {
	// Root is the module root to mutate (read-only; mutants are
	// applied in a shadow copy).
	Root string
	// Packages maps module-relative package dirs to the `go test`
	// targets expected to kill mutants there. Defaults to
	// DefaultPackages when nil.
	Packages map[string][]string
	// Cap bounds selected mutants per package; <= 0 means all (full
	// tier).
	Cap int
	// Shadow is the reusable shadow-copy directory. Reusing the same
	// path across runs keeps Go's build cache warm for unmutated
	// packages. Defaults to a fixed name under os.TempDir().
	Shadow string
	// Short passes -short to the target tests (the quick tier).
	Short bool
	// TestTimeout is handed to `go test -timeout` so runaway mutants
	// (e.g. a negated loop condition) self-kill; a second, doubled
	// context deadline backstops the whole invocation. Defaults to
	// 60s.
	TestTimeout time.Duration
	// Allow marks genuinely-equivalent survivors.
	Allow Allowlist
	// Progress, when non-nil, receives one line per executed mutant.
	// Keep it off stdout when byte-stable output matters.
	Progress io.Writer
}

// Validate checks the configuration for nonsense values. Zero values
// mean "use the default" and are valid.
func (c *Config) Validate() error {
	if c.Root == "" {
		return fmt.Errorf("mutcheck: Config.Root must name the module root")
	}
	if c.Cap < 0 {
		return fmt.Errorf("mutcheck: Config.Cap must be >= 0 (0 = full tier), got %d", c.Cap)
	}
	if c.TestTimeout < 0 {
		return fmt.Errorf("mutcheck: Config.TestTimeout must be >= 0, got %v", c.TestTimeout)
	}
	for pkg, targets := range c.packages() {
		if len(targets) == 0 {
			return fmt.Errorf("mutcheck: package %s has no test targets", pkg)
		}
	}
	return nil
}

func (c *Config) packages() map[string][]string {
	if c.Packages == nil {
		return DefaultPackages
	}
	return c.Packages
}

func (c *Config) shadowDir() string {
	if c.Shadow != "" {
		return c.Shadow
	}
	return filepath.Join(os.TempDir(), "cmpnurapid-mutcheck-shadow")
}

func (c *Config) testTimeout() time.Duration {
	if c.TestTimeout > 0 {
		return c.TestTimeout
	}
	return 60 * time.Second
}

// Run executes the configured mutation campaign and returns the
// report. Mutants run one at a time in the shadow copy; the mutated
// file is restored after each, so Go's content-keyed build cache
// makes consecutive mutants of the same package cheap.
func Run(cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pkgs := make([]string, 0, len(cfg.packages()))
	for pkg := range cfg.packages() {
		pkgs = append(pkgs, pkg)
	}
	// Sorted for deterministic execution and report order.
	sort.Strings(pkgs)
	sites := make(map[string][]Site, len(pkgs))
	for _, pkg := range pkgs {
		ss, err := EnumeratePackage(cfg.Root, pkg)
		if err != nil {
			return nil, err
		}
		sites[pkg] = ss
	}
	// A stale entry fails before any mutant runs: it would otherwise
	// excuse nothing, silently.
	if stale := cfg.Allow.stale(sites); len(stale) > 0 {
		return nil, fmt.Errorf("mutcheck: allowlist entries name no enumerated site (delete them, or re-key them to the site's new ordinal): %s",
			strings.Join(stale, ", "))
	}
	shadow := cfg.shadowDir()
	if err := refreshShadow(cfg.Root, shadow); err != nil {
		return nil, err
	}
	if err := preflight(cfg, shadow); err != nil {
		return nil, err
	}
	tier := "full"
	if cfg.Cap > 0 {
		tier = "quick"
	}
	rep := &Report{Format: 1, Tier: tier, Cap: cfg.Cap}
	for _, pkg := range pkgs {
		pr, err := runPackage(cfg, shadow, pkg, sites[pkg], cfg.packages()[pkg])
		if err != nil {
			return nil, err
		}
		rep.Packages = append(rep.Packages, *pr)
	}
	rep.finish()
	return rep, nil
}

func runPackage(cfg Config, shadow, pkg string, sites []Site, targets []string) (*PackageReport, error) {
	selected := SelectSites(sites, cfg.Cap)
	pr := &PackageReport{Package: pkg, Sites: len(sites), Selected: len(selected)}
	for _, site := range selected {
		outcome, err := runMutant(cfg, shadow, site, targets)
		if err != nil {
			return nil, err
		}
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "%-9s %s (%s)  %s => %s\n", outcome, site.ID(), site.Pos(), site.Before, site.After)
		}
		switch outcome {
		case Killed:
			pr.Killed++
		case Stillborn:
			pr.Stillborn++
		case Survived:
			pr.Survived++
			reason, ok := cfg.Allow[site.ID()]
			if ok {
				pr.Allowlisted++
			}
			pr.Survivors = append(pr.Survivors, Survivor{
				ID: site.ID(), File: site.File, Line: site.Line, Col: site.Col,
				Op: site.Op, Before: site.Before, After: site.After,
				Allowlisted: ok, Reason: reason,
			})
		}
	}
	return pr, nil
}

// preflight runs the union of every target test set against the
// unmutated shadow. This proves the baseline passes — a pre-existing
// failure would spuriously "kill" every mutant — and warms the build
// cache for the shadow path, so the first mutant is as cheap as the
// rest.
func preflight(cfg Config, shadow string) error {
	seen := map[string]bool{}
	var union []string
	for _, targets := range cfg.packages() {
		for _, t := range targets {
			if !seen[t] {
				seen[t] = true
				union = append(union, t)
			}
		}
	}
	sort.Strings(union)
	if cfg.Progress != nil {
		fmt.Fprintf(cfg.Progress, "preflight: go test %s\n", strings.Join(union, " "))
	}
	outcome, out, err := runTests(cfg, shadow, union, 10*cfg.testTimeout())
	if err != nil {
		return err
	}
	if outcome != Survived {
		return fmt.Errorf("mutcheck: target tests fail before any mutation — fix the tree first:\n%s", out)
	}
	return nil
}

// runMutant applies one site into the shadow copy, runs the target
// test sets in order — stopping at the first failure, which is the
// kill — and restores the original file.
func runMutant(cfg Config, shadow string, site Site, targets []string) (Outcome, error) {
	orig, err := os.ReadFile(filepath.Join(cfg.Root, filepath.FromSlash(site.File)))
	if err != nil {
		return "", err
	}
	mutated, err := Mutate(orig, site)
	if err != nil {
		return "", err
	}
	shadowFile := filepath.Join(shadow, filepath.FromSlash(site.File))
	if err := os.WriteFile(shadowFile, mutated, 0o644); err != nil {
		return "", err
	}
	defer os.WriteFile(shadowFile, orig, 0o644)

	// Targets are ordered cheapest-and-likeliest-killer first (the
	// mutated package's own tests), so most kills never pay for the
	// heavier downstream test binaries.
	for _, target := range targets {
		outcome, _, err := runTests(cfg, shadow, []string{target}, cfg.testTimeout())
		if err != nil {
			return "", err
		}
		if outcome != Survived {
			return outcome, nil
		}
	}
	return Survived, nil
}

// runTests is the campaign's one test runner: the preflight and every
// mutant verdict go through it. It is a variable only so the package's
// tests can replay a recorded campaign in milliseconds.
var runTests = goTest

// goTest runs one `go test` invocation in dir and classifies the
// result: Survived (all pass), Stillborn (build/vet failure), or
// Killed (test failure or hang past the doubled timeout backstop).
func goTest(cfg Config, dir string, targets []string, timeout time.Duration) (Outcome, string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*timeout+30*time.Second)
	defer cancel()
	args := []string{"test", "-timeout", timeout.String()}
	if cfg.Short {
		args = append(args, "-short")
	}
	args = append(args, targets...)
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	runErr := cmd.Run()
	if runErr == nil {
		return Survived, out.String(), nil
	}
	if ctx.Err() != nil {
		// The backstop fired: the go tool itself hung past the
		// doubled -timeout. The mutant broke forward progress.
		return Killed, out.String(), nil
	}
	if bytes.Contains(out.Bytes(), []byte("[build failed]")) ||
		bytes.Contains(out.Bytes(), []byte("vet: ")) ||
		bytes.Contains(out.Bytes(), []byte("setup failed")) {
		return Stillborn, out.String(), nil
	}
	if _, ok := runErr.(*exec.ExitError); ok {
		return Killed, out.String(), nil
	}
	return "", "", fmt.Errorf("mutcheck: go test: %w (output: %s)", runErr, out.String())
}

// refreshShadow mirrors the module at root into dir, skipping VCS
// metadata. Every file is rewritten each run so a stale shadow can
// never leak old sources into a fresh campaign; the Go build cache is
// content-keyed, so rewriting identical bytes costs nothing there.
func refreshShadow(root, dir string) error {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	if absDir == absRoot || isUnder(absRoot, absDir) {
		return fmt.Errorf("mutcheck: shadow dir %s must not contain the module root", absDir)
	}
	if err := os.RemoveAll(absDir); err != nil {
		return err
	}
	return filepath.WalkDir(absRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(absRoot, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || (rel != "." && isUnder(path, absDir)) {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(absDir, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(absDir, rel), data, 0o644)
	})
}

// isUnder reports whether path is inside (or equal to) dir.
func isUnder(path, dir string) bool {
	rel, err := filepath.Rel(dir, path)
	if err != nil {
		return false
	}
	return rel == "." || (rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)))
}
