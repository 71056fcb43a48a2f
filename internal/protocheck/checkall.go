package protocheck

// Result aggregates every check protocheck runs over a set of
// protocols.
type Result struct {
	Explorations []*Exploration // per protocol, per N in 2..maxN
	Violations   []Violation
}

// Ok reports whether every check passed.
func (r *Result) Ok() bool { return len(r.Violations) == 0 }

// CheckAll runs the full battery over the given protocols:
// processor-side totality and the joint-state BFS with the safety
// invariants at every cache count from 2 to maxN.
func CheckAll(maxN int, protocols ...*Protocol) *Result {
	if maxN < 2 {
		panic("protocheck: CheckAll needs maxN >= 2")
	}
	if len(protocols) == 0 {
		protocols = []*Protocol{MESI(), MESIC(), Update()}
	}
	r := &Result{}
	for _, p := range protocols {
		r.Violations = append(r.Violations, p.CheckTotality()...)
		for n := 2; n <= maxN; n++ {
			e := p.Explore(n)
			r.Explorations = append(r.Explorations, e)
			r.Violations = append(r.Violations, e.Violations...)
		}
	}
	return r
}
