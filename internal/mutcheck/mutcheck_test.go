package mutcheck

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

const minimod = "testdata/minimod"

func enumerateMinimod(t *testing.T) []Site {
	t.Helper()
	sites, err := EnumeratePackage(minimod, ".")
	if err != nil {
		t.Fatalf("EnumeratePackage: %v", err)
	}
	if len(sites) == 0 {
		t.Fatal("no sites enumerated in fixture")
	}
	return sites
}

// Every operator must find at least one candidate in the fixture, and
// every enumerated site must be applicable (Mutate succeeds and
// changes the source).
func TestEveryOperatorEnumeratesAndMutates(t *testing.T) {
	sites := enumerateMinimod(t)
	src, err := os.ReadFile(filepath.Join(minimod, "lib.go"))
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[string]int{}
	for _, s := range sites {
		byOp[s.Op]++
		mutated, err := Mutate(src, s)
		if err != nil {
			t.Fatalf("Mutate(%s): %v", s.ID(), err)
		}
		if bytes.Equal(mutated, src) {
			t.Errorf("Mutate(%s) left the source unchanged", s.ID())
		}
		if s.Before == s.After {
			t.Errorf("site %s: before and after render identically: %q", s.ID(), s.Before)
		}
	}
	for _, op := range Operators {
		if byOp[op.Name] == 0 {
			t.Errorf("operator %s found no candidate in the fixture", op.Name)
		}
	}
}

// Each operator's first fixture mutant must compile: the operators are
// designed to produce type-correct single edits, with the compile
// check only as a backstop for rare contexts (branchdel of a
// terminating arm, constant-overflow indexes).
func TestEveryOperatorProducesCompilableMutant(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the fixture once per operator")
	}
	sites := enumerateMinimod(t)
	src, err := os.ReadFile(filepath.Join(minimod, "lib.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range Operators {
		var site *Site
		for i := range sites {
			if sites[i].Op == op.Name {
				site = &sites[i]
				break
			}
		}
		if site == nil {
			t.Errorf("operator %s: no fixture site", op.Name)
			continue
		}
		mutated, err := Mutate(src, *site)
		if err != nil {
			t.Fatalf("Mutate(%s): %v", site.ID(), err)
		}
		dir := t.TempDir()
		gomod, err := os.ReadFile(filepath.Join(minimod, "go.mod"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), gomod, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "lib.go"), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command("go", "build", "./...")
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("operator %s: mutant %s does not compile:\n%s\n--- mutated source:\n%s",
				op.Name, site.ID(), out, mutated)
		}
	}
}

// Site enumeration and quick-tier selection are deterministic: two
// independent runs agree exactly, including hash-sampled subsets.
func TestEnumerationDeterministic(t *testing.T) {
	first := enumerateMinimod(t)
	second := enumerateMinimod(t)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("two enumerations of the same tree differ")
	}
	selA := SelectSites(first, 5)
	selB := SelectSites(second, 5)
	if !reflect.DeepEqual(selA, selB) {
		t.Fatal("two cap-5 selections of the same sites differ")
	}
	if len(selA) != 5 {
		t.Fatalf("cap 5 selected %d sites", len(selA))
	}
	all := SelectSites(first, 0)
	if len(all) != len(first) {
		t.Fatalf("cap 0 selected %d of %d sites", len(all), len(first))
	}
}

// TestSelectionSurvivesUnrelatedEdit: a blank line above a function
// shifts every site below it, but the quick-tier sample and its
// allowlist keys stay the same.
func TestSelectionSurvivesUnrelatedEdit(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(minimod, "lib.go"))
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(src), "\nfunc Clamp(", "\n\nfunc Clamp(", 1)
	if edited == string(src) {
		t.Fatal("fixture has no func Clamp to shift")
	}
	selection := func(lib string) []string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "lib.go"), []byte(lib), 0o644); err != nil {
			t.Fatal(err)
		}
		sites, err := EnumeratePackage(dir, ".")
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, s := range SelectSites(sites, 5) {
			ids = append(ids, s.ID()+" "+s.Before+" => "+s.After)
		}
		return ids
	}
	before, after := selection(string(src)), selection(edited)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("a blank line redrew the sample:\n%s\nvs\n%s",
			strings.Join(before, "\n"), strings.Join(after, "\n"))
	}
}

// TestEnumerationMatchesToolchainFileFilter: mutants are drawn from
// exactly the files `go build` compiles. A release tag (go1.21) is
// satisfied by any current toolchain, and a GOOS file-name suffix
// other than the host's excludes the file.
func TestEnumerationMatchesToolchainFileFilter(t *testing.T) {
	otherOS := "windows"
	if runtime.GOOS == otherOS {
		otherOS = "plan9"
	}
	dir := t.TempDir()
	for name, src := range map[string]string{
		"lib.go":               "package m\n\nfunc A(a, b int) bool { return a < b }\n",
		"release.go":           "//go:build go1.21\n\npackage m\n\nfunc B(a, b int) bool { return a < b }\n",
		"x_" + otherOS + ".go": "package m\n\nfunc C(a, b int) bool { return a < b }\n",
		"lib_test.go":          "package m\n\nfunc D(a, b int) bool { return a < b }\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sites, err := EnumeratePackage(dir, ".")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]bool{}
	for _, s := range sites {
		files[s.File] = true
	}
	if want := map[string]bool{"lib.go": true, "release.go": true}; !reflect.DeepEqual(files, want) {
		t.Errorf("sites drawn from %v, want %v", files, want)
	}
}

func TestAllowlistReasonsEnforced(t *testing.T) {
	good := "# comment\n\nlib.go:Clamp:relswap:0 mutcheck:survives clamp boundary is value-equivalent\n"
	al, err := ParseAllowlist(strings.NewReader(good))
	if err != nil {
		t.Fatalf("ParseAllowlist: %v", err)
	}
	if al["lib.go:Clamp:relswap:0"] != "clamp boundary is value-equivalent" {
		t.Fatalf("parsed allowlist = %v", al)
	}
	for _, bad := range []string{
		"lib.go:Clamp:relswap:0 mutcheck:survives",                // reason-less
		"lib.go:Clamp:relswap:0 mutcheck:survives   ",             // whitespace reason
		"lib.go:Clamp:relswap:0 because I said so",                // missing marker
		"lib.go:Clamp:relswap:0",                                  // bare ID
		good + "lib.go:Clamp:relswap:0 mutcheck:survives twice\n", // duplicate
	} {
		if _, err := ParseAllowlist(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseAllowlist(%q) accepted an invalid entry", bad)
		}
	}
}

func TestLoadAllowlistMissingFileIsEmpty(t *testing.T) {
	al, err := LoadAllowlist(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(al) != 0 {
		t.Fatalf("LoadAllowlist(missing) = %v, %v", al, err)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := &Report{
		Format: 1, Tier: "quick", Cap: 8,
		Packages: []PackageReport{{
			Package: "internal/cache", Sites: 42, Selected: 8, Killed: 7, Survived: 1,
			Survivors: []Survivor{{
				ID: "internal/cache/cache.go:Array.Probe:relswap:0", File: "internal/cache/cache.go",
				Line: 10, Col: 2, Op: "relswap", Before: "a < b", After: "a <= b",
				Allowlisted: true, Reason: "boundary equivalent",
			}},
		}},
	}
	rep.finish()
	data, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalReport(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := back.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("round trip changed bytes:\n%s\nvs\n%s", data, data2)
	}
	if _, err := UnmarshalReport([]byte(`{"format":99}`)); err == nil {
		t.Error("UnmarshalReport accepted unknown format")
	}
}

func TestCompareRatioMayRiseNeverFall(t *testing.T) {
	mk := func(killed, survived int) *Report {
		r := &Report{Format: 1, Tier: "quick", Cap: 8,
			Packages: []PackageReport{{Package: "internal/cache", Killed: killed, Survived: survived}}}
		r.finish()
		return r
	}
	var buf bytes.Buffer
	if n := Compare(mk(7, 1), mk(7, 1), &buf); n != 0 {
		t.Errorf("identical reports: %d failures\n%s", n, buf.String())
	}
	if n := Compare(mk(7, 1), mk(8, 0), &buf); n != 0 {
		t.Errorf("ratio rise: %d failures\n%s", n, buf.String())
	}
	buf.Reset()
	if n := Compare(mk(7, 1), mk(6, 2), &buf); n == 0 {
		t.Error("ratio fall not detected")
	} else if !strings.Contains(buf.String(), "fell below baseline") {
		t.Errorf("unexpected failure output:\n%s", buf.String())
	}
	buf.Reset()
	base := mk(7, 1)
	fresh := &Report{Format: 1, Tier: "quick", Cap: 8}
	fresh.finish()
	if n := Compare(base, fresh, &buf); n == 0 {
		t.Error("missing baseline package not detected")
	}

	// A ratio is comparable only at the baseline's tier, cap and site
	// population, whichever way the ratio moved.
	for name, c := range map[string]struct {
		edit func(*Report)
		want string
	}{
		"tier":  {func(r *Report) { r.Tier = "full" }, "FAIL tier: full in this run, quick in the baseline"},
		"cap":   {func(r *Report) { r.Cap = 16 }, "FAIL cap per package: 16 in this run, 8 in the baseline"},
		"sites": {func(r *Report) { r.Packages[0].Sites = 62 }, "FAIL internal/cache sites: 62 in this run, 55 in the baseline"},
	} {
		base, fresh := mk(7, 1), mk(8, 0)
		base.Packages[0].Sites, fresh.Packages[0].Sites = 55, 55
		c.edit(fresh)
		buf.Reset()
		if n := Compare(base, fresh, &buf); n != 1 {
			t.Errorf("%s mismatch: %d failures, want 1\n%s", name, n, buf.String())
		}
		if !strings.Contains(buf.String(), c.want) || !strings.Contains(buf.String(), "-write") {
			t.Errorf("%s mismatch: output %q does not contain %q and the -write hint", name, buf.String(), c.want)
		}
	}
}

// recordedSurvivors are the surviving mutants of one real go test
// campaign over both fixture packages; every other mutant was killed
// and none was stillborn. TestFixtureCampaign re-runs go test for
// package campaign's share of them.
var recordedSurvivors = map[string]bool{
	"lib.go:Clamp:relswap:0":                     true,
	"lib.go:Clamp:relswap:1":                     true,
	"lib.go:FirstPositive:relswap:1":             true,
	"campaign/campaign.go:Untested:relswap:0":    true,
	"campaign/campaign.go:Untested:offbyone:0":   true,
	"campaign/campaign.go:Untested:boolnegate:0": true,
	"campaign/campaign.go:Untested:branchdel:0":  true,
}

var fixturePackages = map[string][]string{".": {"."}, "campaign": {"./campaign"}}

// replayRecorded makes runTests answer from recordedSurvivors for the
// rest of the test: it finds the fixture file that differs from the
// original in the shadow copy, and the site whose mutant it holds.
func replayRecorded(t *testing.T) {
	t.Helper()
	type mutant struct{ file, src string }
	outcome := map[mutant]Outcome{}
	orig := map[string]string{}
	for pkg := range fixturePackages {
		sites, err := EnumeratePackage(minimod, pkg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sites {
			src, err := os.ReadFile(filepath.Join(minimod, s.File))
			if err != nil {
				t.Fatal(err)
			}
			orig[s.File] = string(src)
			mutated, err := Mutate(src, s)
			if err != nil {
				t.Fatal(err)
			}
			o := Killed
			if recordedSurvivors[s.ID()] {
				o = Survived
			}
			outcome[mutant{s.File, string(mutated)}] = o
		}
	}
	saved := runTests
	t.Cleanup(func() { runTests = saved })
	runTests = func(_ Config, dir string, _ []string, _ time.Duration) (Outcome, string, error) {
		for file, src := range orig {
			got, err := os.ReadFile(filepath.Join(dir, file))
			if err != nil {
				return "", "", err
			}
			if string(got) != src {
				o, ok := outcome[mutant{file, string(got)}]
				if !ok {
					t.Fatalf("shadow %s holds no enumerated mutant", file)
				}
				return o, "", nil
			}
		}
		return Survived, "", nil // the preflight: nothing mutated
	}
}

// TestCampaignAccounting replays the recorded campaign: the allowlist
// turns survivors into accounted-for survivors, and two consecutive
// runs produce byte-identical reports.
func TestCampaignAccounting(t *testing.T) {
	replayRecorded(t)
	cfg := Config{
		Root:     minimod,
		Packages: fixturePackages,
		Shadow:   filepath.Join(t.TempDir(), "shadow"),
		Short:    true,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := rep.Total
	if total.Survived != len(recordedSurvivors) || total.Killed == 0 || total.Stillborn != 0 {
		t.Fatalf("replayed campaign: killed %d survived %d stillborn %d, want survived %d",
			total.Killed, total.Survived, total.Stillborn, len(recordedSurvivors))
	}
	if got := len(rep.Unallowlisted()); got != total.Survived {
		t.Errorf("Unallowlisted() = %d, want all %d survivors", got, total.Survived)
	}

	// Allowlist every survivor and rerun: the same survivors come
	// back, now accounted for — and after normalizing the allowlist
	// fields away, the rerun's JSON is byte-identical to the first
	// run's, which is the determinism contract the committed
	// MUTATION_quick.json baseline depends on.
	allow := Allowlist{}
	for _, s := range rep.Unallowlisted() {
		allow[s.ID] = "fixture: deliberately uncovered"
	}
	cfg.Allow = allow
	rep2, err := Run(cfg)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if rep2.Total.Survived != total.Survived || rep2.Total.Allowlisted != total.Survived {
		t.Errorf("allowlisted rerun: survived %d allowlisted %d, want both %d",
			rep2.Total.Survived, rep2.Total.Allowlisted, total.Survived)
	}
	if len(rep2.Unallowlisted()) != 0 {
		t.Errorf("allowlisted rerun still reports %d unaccounted survivors", len(rep2.Unallowlisted()))
	}
	for i := range rep2.Packages {
		p := &rep2.Packages[i]
		p.Allowlisted = 0
		for j := range p.Survivors {
			p.Survivors[j].Allowlisted = false
			p.Survivors[j].Reason = ""
		}
	}
	rep2.Total.Allowlisted = 0
	b1, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := rep2.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("two identical campaigns differ beyond allowlist fields:\n%s\nvs\n%s", b1, b2)
	}
}

// TestStaleAllowlistEntryFails: an allowlist entry naming no site of a
// package the run covers fails the run, naming the entry; an entry for
// a package outside the run and one naming a real site do not.
func TestStaleAllowlistEntryFails(t *testing.T) {
	replayRecorded(t)
	const stale = "campaign/campaign.go:Untested:relswap:99"
	cfg := Config{
		Root:     minimod,
		Packages: fixturePackages,
		Shadow:   filepath.Join(t.TempDir(), "shadow"),
		Short:    true,
		Allow: Allowlist{
			stale: "excuses a site that is gone",
			"campaign/campaign.go:Untested:branchdel:0": "fixture: deliberately uncovered",
			"internal/other/x.go:F:relswap:0":           "a package this run does not cover",
		},
	}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), stale) {
		t.Fatalf("Run with a stale entry = %v, want an error naming %s", err, stale)
	}
	if strings.Contains(err.Error(), "branchdel") || strings.Contains(err.Error(), "internal/other") {
		t.Errorf("error names a live or uncovered entry: %v", err)
	}
	delete(cfg.Allow, stale)
	if _, err := Run(cfg); err != nil {
		t.Errorf("Run without the stale entry: %v", err)
	}
}

// TestFixtureCampaign runs go test once per mutant of package campaign:
// the kills and survivors land where the fixture's tests say they
// must, and match what the replayed campaign assumes.
func TestFixtureCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go test once per fixture mutant")
	}
	rep, err := Run(Config{
		Root:     minimod,
		Packages: map[string][]string{"campaign": {"./campaign"}},
		Shadow:   filepath.Join(t.TempDir(), "shadow"),
		Short:    true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Tier != "full" {
		t.Errorf("tier = %q, want full", rep.Tier)
	}
	total := rep.Total
	if total.Killed == 0 {
		t.Fatal("no mutants killed — fixture tests are not running")
	}
	if total.Survived == 0 {
		t.Fatal("no mutants survived — Untested should leak survivors")
	}
	if total.Stillborn > 0 {
		t.Errorf("%d stillborn mutants in fixture (all fixture mutants should compile)", total.Stillborn)
	}
	// Untested is uncovered: every one of its mutants must survive.
	var untestedSurvivors int
	for _, s := range rep.Packages[0].Survivors {
		if strings.HasPrefix(s.ID, "campaign/campaign.go:Untested:") {
			untestedSurvivors++
		}
		if s.Allowlisted {
			t.Errorf("survivor %s allowlisted with empty allowlist", s.ID)
		}
		if !recordedSurvivors[s.ID] {
			t.Errorf("survivor %s is recorded as killed", s.ID)
		}
	}
	if untestedSurvivors < 4 {
		t.Errorf("only %d survivors in Untested (want its relswap, offbyone, boolnegate and branchdel mutants)", untestedSurvivors)
	}
	if untestedSurvivors != total.Survived {
		t.Errorf("%d survivors, %d of them recorded", total.Survived, untestedSurvivors)
	}
}
