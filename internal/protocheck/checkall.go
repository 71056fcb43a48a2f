package protocheck

// Result aggregates every check protocheck runs over a set of
// protocols.
type Result struct {
	Explorations []*Exploration // per protocol, per N in 2..maxN
	Violations   []Violation
}

// Ok reports whether every check passed.
func (r *Result) Ok() bool { return len(r.Violations) == 0 }

// CheckAll runs the full battery over the given protocols: golden
// Figure 4 drift, processor-side totality, joint-state BFS with the
// safety invariants at every cache count from 2 to maxN, the
// snoop-panic/unreachability cross-check, and (when both MESI and
// MESIC are present) the dirty-free differential.
func CheckAll(maxN int, protocols ...*Protocol) *Result {
	if maxN < 2 {
		panic("protocheck: CheckAll needs maxN >= 2")
	}
	if len(protocols) == 0 {
		protocols = []*Protocol{MESI(), MESIC(), Update()}
	}
	r := &Result{}
	names := map[string]bool{}
	for _, p := range protocols {
		names[p.Name] = true
		r.Violations = append(r.Violations, CheckGolden(p)...)
		r.Violations = append(r.Violations, p.CheckTotality()...)
		for n := 2; n <= maxN; n++ {
			e := p.Explore(n)
			r.Explorations = append(r.Explorations, e)
			r.Violations = append(r.Violations, e.Violations...)
			if n == maxN {
				r.Violations = append(r.Violations, p.CheckSnoopPanics(e)...)
			}
		}
	}
	if names["MESI"] && names["MESIC"] {
		_, violations := DiffExplore(maxN)
		r.Violations = append(r.Violations, violations...)
	}
	return r
}
