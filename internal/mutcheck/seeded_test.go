package mutcheck

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cmpnurapid/internal/protocheck"
)

// These tests pin scripts/mutants.sh — the single entry point for the
// repo's hand-seeded mutant gates — against the registries it claims
// to cover, so adding a mutant without wiring its gate (or unwiring
// the script from check.sh/CI) fails the suite.

func readRepoFile(t *testing.T, rel string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", filepath.FromSlash(rel)))
	if err != nil {
		t.Fatalf("read %s: %v", rel, err)
	}
	return string(data)
}

// Every registered protocol mutant must appear in the script's loop:
// a new entry in internal/protocheck's registry that nobody added to
// the gate would otherwise go unexercised by check.sh and CI.
func TestMutantsScriptCoversProtocolMutants(t *testing.T) {
	script := readRepoFile(t, "scripts/mutants.sh")
	for _, name := range protocheck.MutantNames() {
		if !strings.Contains(script, name) {
			t.Errorf("scripts/mutants.sh does not gate protocol mutant %q", name)
		}
	}
}

// The script must keep gating every seeded-mutant family, and both
// check.sh and the CI workflow must invoke it (one owner, no drift).
func TestMutantsScriptGatesAndCallers(t *testing.T) {
	script := readRepoFile(t, "scripts/mutants.sh")
	for _, gate := range []string{
		"testdata/unitmutants",    // unit-confusion mutants vs unitcheck
		"testdata/hotpathmutants", // per-tick allocation mutants vs hotpath
		"cmd/protocheck -mutant",  // protocol mutants vs the model checker
	} {
		if !strings.Contains(script, gate) {
			t.Errorf("scripts/mutants.sh lost the %q gate", gate)
		}
	}
	for _, caller := range []string{"scripts/check.sh", ".github/workflows/ci.yml"} {
		if !strings.Contains(readRepoFile(t, caller), "mutants.sh") {
			t.Errorf("%s does not invoke scripts/mutants.sh", caller)
		}
	}
}

// TestSeededProtocolMutantsKilled runs the protocheck half of the
// gate for real: every registered mutant must fail the checker. The
// same subprocesses scripts/mutants.sh spawns, so a regression shows
// up here even when nobody runs the script.
func TestSeededProtocolMutantsKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs protocheck once per mutant")
	}
	for _, name := range protocheck.MutantNames() {
		cmd := exec.Command("go", "run", "./cmd/protocheck", "-mutant", name, "-q")
		cmd.Dir = filepath.Join("..", "..")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("seeded protocol mutant %q passed the checker:\n%s", name, out)
		}
	}
}
