package protocheck

import (
	"os"
	"strings"
	"testing"
)

func TestProcTableContent(t *testing.T) {
	table := MESIC().ProcTable()
	cases := []string{
		// The C self-loop: a write in C stays in C and write-throughs.
		"| C | PrWr | any | **C** | BusUpg |",
		// Read miss splits on the dirty line: C vs E/S.
		"| I | PrRd | dirty line | **C** | BusRd |",
	}
	for _, want := range cases {
		if !strings.Contains(table, want) {
			t.Errorf("MESIC proc table missing %q:\n%s", want, table)
		}
	}
	// MESI's table documents the out-of-protocol C rows as panics.
	if mesi := MESI().ProcTable(); !strings.Contains(mesi, "| C | PrRd | any | **✗ panic** | — |") {
		t.Errorf("MESI proc table does not document C as a panic:\n%s", mesi)
	}
}

func TestSnoopTableAnnotatesReachability(t *testing.T) {
	table := MESIC().SnoopTable(MESIC().Explore(3))
	if !strings.Contains(table, "| M | BusRd | **C** | Flush |") {
		t.Errorf("snoop table missing the deleted-arc replacement (M+BusRd → C):\n%s", table)
	}
	if !strings.Contains(table, "**✗ panic** | unreachable") {
		t.Errorf("snoop table does not document the panicking defaults:\n%s", table)
	}
}

func TestSigGroupLabelFallback(t *testing.T) {
	// {} with {s,d} is no single line predicate: explicit listing.
	got := sigGroupLabel(0b1001)
	if !strings.Contains(got, "S=false,D=false") || !strings.Contains(got, "S=true,D=true") {
		t.Errorf("fallback label = %q", got)
	}
}

func TestSpliceDocErrors(t *testing.T) {
	if _, err := SpliceDoc([]byte("no markers here"), "block"); err == nil {
		t.Error("SpliceDoc accepted a doc without markers")
	}
	inverted := []byte(DocEnd + "\n" + DocBegin)
	if _, err := SpliceDoc(inverted, "block"); err == nil {
		t.Error("SpliceDoc accepted inverted markers")
	}
}

func TestSpliceDocRoundTrip(t *testing.T) {
	doc := []byte("# Title\n\n" + DocBegin + "\nstale\n" + DocEnd + "\ntrailer\n")
	block := "fresh content"
	updated, err := SpliceDoc(doc, block)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(updated), block) || strings.Contains(string(updated), "stale") {
		t.Errorf("splice result:\n%s", updated)
	}
	if !DocInSync(updated, block) {
		t.Error("freshly spliced doc reported out of sync")
	}
	if DocInSync(doc, block) {
		t.Error("stale doc reported in sync")
	}
}

// TestProtocolDoc is the docs/PROTOCOL.md sync check: the committed
// generated block must equal what the code generates now. It only
// reads the file; `go generate ./internal/protocheck` rewrites it.
func TestProtocolDoc(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	if !DocInSync(doc, GenerateDoc(DocExplorations())) {
		t.Error("docs/PROTOCOL.md generated block is stale; run `go generate ./internal/protocheck`")
	}
}
