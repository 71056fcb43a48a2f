package protocheck

import (
	"fmt"
	"strings"

	"cmpnurapid/internal/coherence"
)

// ProcEntry is one row of the single-cache processor-side scan.
type ProcEntry struct {
	S        coherence.State
	Op       coherence.ProcOp
	Sig      coherence.Signals
	Next     coherence.State
	Bus      coherence.BusOp
	Panicked bool
}

// SnoopEntry is one row of the single-cache snoop-side scan.
type SnoopEntry struct {
	S        coherence.State
	Op       coherence.BusOp
	Next     coherence.State
	Act      coherence.SnoopAction
	Panicked bool
}

// ScanProc enumerates the complete processor-side input space —
// including states outside the protocol, so the tables document the
// panics — and records each outcome.
func (p *Protocol) ScanProc() []ProcEntry {
	var entries []ProcEntry
	for _, s := range allStates {
		for _, op := range procOps {
			for _, sig := range allSignals {
				next, bus, panicMsg := callProc(p.Proc, s, op, sig)
				entries = append(entries, ProcEntry{
					S: s, Op: op, Sig: sig,
					Next: next, Bus: bus, Panicked: panicMsg != "",
				})
			}
		}
	}
	return entries
}

// ScanSnoop enumerates the complete snoop-side input space.
func (p *Protocol) ScanSnoop() []SnoopEntry {
	var entries []SnoopEntry
	for _, s := range allStates {
		for _, op := range allBusOps {
			next, act, panicMsg := callSnoop(p.Snoop, s, op)
			entries = append(entries, SnoopEntry{
				S: s, Op: op, Next: next, Act: act, Panicked: panicMsg != "",
			})
		}
	}
	return entries
}

// CheckTotality verifies the processor side is total over the
// protocol's own states: a reachable-state panic there can never be
// legitimate, because every (op, signals) combination can occur on a
// miss or hit.
func (p *Protocol) CheckTotality() []Violation {
	var violations []Violation
	for _, entry := range p.ScanProc() {
		if entry.Panicked && p.member(entry.S) {
			violations = append(violations, Violation{
				Kind: "totality",
				Message: fmt.Sprintf("%sProc(%v, %v, %+v) panics on an in-protocol input",
					p.Name, entry.S, entry.Op, entry.Sig),
			})
		}
	}
	return violations
}

// CheckSnoopPanics cross-checks the snoop scan against an exploration:
// every input the snoop function rejects with a panic must be outside
// the BFS-reachable set (the reverse direction — a reachable input
// panicking — is caught live during the BFS).
func (p *Protocol) CheckSnoopPanics(e *Exploration) []Violation {
	var violations []Violation
	for _, entry := range p.ScanSnoop() {
		if entry.Panicked && e.Reachable[SnoopPair{entry.S, entry.Op}] {
			violations = append(violations, Violation{
				Kind: "unreachable",
				Message: fmt.Sprintf("%sSnoop(%v, %v) panics but the N=%d BFS reaches that input",
					p.Name, entry.S, entry.Op, e.N),
			})
		}
	}
	return violations
}

// --- markdown rendering ---

// sigIndex maps a signal combination to its position in allSignals.
func sigIndex(sig coherence.Signals) int {
	for i, s := range allSignals {
		if s == sig {
			return i
		}
	}
	panic("protocheck: signal combination outside the enumerated domain")
}

// sigGroupLabel names a set of signal combinations (a bitmask over
// allSignals indices) in bus terms. Masks that do not correspond to a
// single line predicate fall back to an explicit listing.
func sigGroupLabel(mask int) string {
	switch mask {
	case 0b1111:
		return "any"
	case 0b1010: // {d}, {s,d}
		return "dirty line"
	case 0b0101: // {}, {s}
		return "no dirty line"
	case 0b1100: // {s}, {s,d}
		return "shared line"
	case 0b0011: // {}, {d}
		return "no shared line"
	case 0b1110: // {d}, {s}, {s,d}
		return "shared or dirty line"
	case 0b0001: // {}
		return "no other copies"
	case 0b0100: // {s}
		return "shared line only"
	case 0b0010: // {d}
		return "dirty line only"
	}
	var parts []string
	for i, sig := range allSignals {
		if mask&(1<<i) != 0 {
			parts = append(parts, fmt.Sprintf("S=%t,D=%t", sig.Shared, sig.Dirty))
		}
	}
	return strings.Join(parts, " | ")
}

// ProcTable renders the processor-side transition table, merging
// signal combinations with identical outcomes into one labelled row.
func (p *Protocol) ProcTable() string {
	entries := p.ScanProc()
	byInput := map[string]ProcEntry{}
	for _, entry := range entries {
		byInput[fmt.Sprintf("%v|%v|%d", entry.S, entry.Op, sigIndex(entry.Sig))] = entry
	}

	var b strings.Builder
	fmt.Fprintf(&b, "| State | Op | Bus signals | → State | Bus transaction |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|\n")
	for _, s := range allStates {
		for _, op := range procOps {
			// Group the four signal combinations by outcome.
			type outcome struct {
				text string
				mask int
			}
			var groups []outcome
			for i := range allSignals {
				entry := byInput[fmt.Sprintf("%v|%v|%d", s, op, i)]
				text := "**✗ panic**"
				if !entry.Panicked {
					text = fmt.Sprintf("**%v** | %v", entry.Next, entry.Bus)
				}
				merged := false
				for gi := range groups {
					if groups[gi].text == text {
						groups[gi].mask |= 1 << i
						merged = true
						break
					}
				}
				if !merged {
					groups = append(groups, outcome{text, 1 << i})
				}
			}
			for _, g := range groups {
				result := g.text
				if result == "**✗ panic**" {
					result += " | —"
				}
				fmt.Fprintf(&b, "| %v | %v | %s | %s |\n", s, op, sigGroupLabel(g.mask), result)
			}
		}
	}
	return b.String()
}

// SnoopTable renders the snoop-side transition table; reach (from an
// exploration, may be nil) annotates which inputs any interleaving can
// produce.
func (p *Protocol) SnoopTable(e *Exploration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "| State | Snooped | → State | Action |\n")
	fmt.Fprintf(&b, "|---|---|---|---|\n")
	for _, entry := range p.ScanSnoop() {
		result := fmt.Sprintf("**%v** | %v", entry.Next, entry.Act)
		if entry.Panicked {
			result = "**✗ panic** | unreachable"
		} else if e != nil && !e.Reachable[SnoopPair{entry.S, entry.Op}] {
			result += " *(unreachable)*"
		}
		fmt.Fprintf(&b, "| %v | %v | %s |\n", entry.S, entry.Op, result)
	}
	return b.String()
}

//go:generate go run gendoc.go

// Markers bracketing the generated block in docs/PROTOCOL.md.
const (
	DocBegin = "<!-- BEGIN protocheck:generated — run `go generate ./internal/protocheck` to refresh -->"
	DocEnd   = "<!-- END protocheck:generated -->"
)

// DocExplorations runs the canonical exploration set the published
// tables are generated from — every protocol at N=2..4.
func DocExplorations() []*Exploration {
	var es []*Exploration
	for _, p := range []*Protocol{MESI(), MESIC(), Update()} {
		for n := 2; n <= 4; n++ {
			es = append(es, p.Explore(n))
		}
	}
	return es
}

// GenerateDoc renders the generated docs/PROTOCOL.md block: the six
// transition tables straight from the code, the invariants the checker
// enforces, and the per-N exploration statistics.
func GenerateDoc(explorations []*Exploration) string {
	var b strings.Builder
	b.WriteString("## Verified transition tables (generated)\n\n")
	b.WriteString("Everything between the `protocheck:generated` markers is produced by\n")
	b.WriteString("`go generate ./internal/protocheck` from the *actual* transition functions\n")
	b.WriteString("in `internal/coherence` — do not edit by hand. `go test ./internal/protocheck`\n")
	b.WriteString("fails if this section drifts from the code or the code drifts from the\n")
	b.WriteString("golden encodings (`internal/protocheck/golden.go`).\n\n")

	byProto := map[string][]*Exploration{}
	var order []string
	for _, e := range explorations {
		if _, ok := byProto[e.Protocol.Name]; !ok {
			order = append(order, e.Protocol.Name)
		}
		byProto[e.Protocol.Name] = append(byProto[e.Protocol.Name], e)
	}

	for _, name := range order {
		es := byProto[name]
		p := es[0].Protocol
		largest := es[len(es)-1]
		fmt.Fprintf(&b, "### %s\n\n", name)
		fmt.Fprintf(&b, "Processor side (`%sProc`):\n\n%s\n", name, p.ProcTable())
		fmt.Fprintf(&b, "Snoop side (`%sSnoop`), annotated with N=%d reachability:\n\n%s\n",
			name, largest.N, p.SnoopTable(largest))
		b.WriteString("State space explored (all caches start at I; every interleaving of\nper-cache PrRd/PrWr):\n\n")
		b.WriteString("| Caches | Joint states | Transitions |\n|---|---|---|\n")
		for _, e := range es {
			fmt.Fprintf(&b, "| %d | %d | %d |\n", e.N, e.States, e.Edges)
		}
		b.WriteString("\nSnoop inputs no interleaving can produce (the panicking defaults in\n`internal/coherence` are justified by this set):\n\n")
		unreachable := largest.UnreachableSnoopPairs()
		if len(unreachable) == 0 {
			b.WriteString("- none\n")
		}
		for _, pair := range unreachable {
			fmt.Fprintf(&b, "- `%s`\n", pair)
		}
		b.WriteString("\n")
	}

	b.WriteString("### Invariants checked on every reached state\n\n")
	b.WriteString("1. Every cache is in a state its protocol defines.\n")
	b.WriteString("2. At most one M and at most one E holder (single writer).\n")
	b.WriteString("3. An M or E holder coexists with no other valid copy.\n")
	b.WriteString("4. At most one O holder (one dirty owner of a shared block).\n")
	b.WriteString("5. S never coexists with C (clean-shared xor dirty-shared).\n")
	b.WriteString("6. No transition out of C on any edge (only replacement, which the\n   protocol layer does not model, may leave C).\n")
	b.WriteString("7. No write leaves a stale copy: every other copy still valid after\n   it is in C or snooped the write with InvL1 (took the update).\n")
	b.WriteString("8. No transition function panics on a reachable input.\n")
	b.WriteString("9. MESI and MESIC are trace-identical on every interleaving where no\n   requester samples an asserted dirty line (§3.2 containment).\n")
	return b.String()
}

// SpliceDoc replaces the generated block between DocBegin/DocEnd in an
// existing document. It errors if the markers are missing or inverted,
// rather than guessing where the block belongs.
func SpliceDoc(doc []byte, block string) ([]byte, error) {
	text := string(doc)
	begin := strings.Index(text, DocBegin)
	end := strings.Index(text, DocEnd)
	if begin < 0 || end < 0 {
		return nil, fmt.Errorf("protocheck: docs are missing the %q / %q markers", DocBegin, DocEnd)
	}
	if end < begin {
		return nil, fmt.Errorf("protocheck: doc markers are inverted")
	}
	return []byte(text[:begin+len(DocBegin)] + "\n\n" + block + "\n" + text[end:]), nil
}

// DocInSync reports whether the generated block inside doc matches
// block exactly.
func DocInSync(doc []byte, block string) bool {
	want, err := SpliceDoc(doc, block)
	if err != nil {
		return false
	}
	return string(doc) == string(want)
}
