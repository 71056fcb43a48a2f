package mutcheck

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path"
	"sort"
	"strings"
)

// The allowlist (MUTATION_allow at the module root) names mutants that
// are genuinely equivalent — survivors no test *could* kill — one per
// line, with a mandatory reason:
//
//	<site-id> mutcheck:survives <reason>
//
// e.g.
//
//	internal/cache/cache.go:Array.VictimPreferring:relswap:1 mutcheck:survives no two valid lines of a set share a lastUse
//
// The reason is not decoration: a survivor without an allowlist entry
// fails the run, and an entry without a reason fails parsing. This
// mirrors the `hotpath:alloc <reason>` audit discipline — every
// exemption carries its justification next to the exemption. An entry
// that names no site of a package the run covers fails the run too,
// so an edit that deletes or renumbers an excused site cannot leave
// its excuse behind.
const allowMarker = "mutcheck:survives"

// Allowlist maps site ID -> reason.
type Allowlist map[string]string

// ParseAllowlist reads the allowlist format. Blank lines and lines
// starting with # are ignored.
func ParseAllowlist(r io.Reader) (Allowlist, error) {
	al := Allowlist{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		id, rest, ok := strings.Cut(text, " ")
		if !ok {
			return nil, fmt.Errorf("mutcheck: allowlist line %d: want %q, got %q", line, "<site-id> "+allowMarker+" <reason>", text)
		}
		rest = strings.TrimSpace(rest)
		reason, ok := strings.CutPrefix(rest, allowMarker)
		if !ok {
			return nil, fmt.Errorf("mutcheck: allowlist line %d: missing %q marker", line, allowMarker)
		}
		reason = strings.TrimSpace(reason)
		if reason == "" {
			return nil, fmt.Errorf("mutcheck: allowlist line %d: %s without a reason (reasons are mandatory)", line, allowMarker)
		}
		if _, dup := al[id]; dup {
			return nil, fmt.Errorf("mutcheck: allowlist line %d: duplicate entry for %s", line, id)
		}
		al[id] = reason
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return al, nil
}

// LoadAllowlist reads path; a missing file is an empty allowlist.
func LoadAllowlist(path string) (Allowlist, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return Allowlist{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseAllowlist(f)
}

// stale returns, sorted, the entries that name a file in one of the
// enumerated packages (sites is keyed by module-relative package dir)
// but none of its sites.
func (al Allowlist) stale(sites map[string][]Site) []string {
	ids := map[string]bool{}
	for _, ss := range sites {
		for _, s := range ss {
			ids[s.ID()] = true
		}
	}
	var out []string
	for id := range al {
		file, _, _ := strings.Cut(id, ":")
		if _, covered := sites[path.Dir(file)]; covered && !ids[id] {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
