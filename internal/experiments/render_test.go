package experiments

import (
	"strings"
	"testing"
)

// TestAllFiguresRender regenerates every figure and ablation at a tiny
// scale and checks the rendered tables are well-formed (right titles,
// every workload present). This is the rendering-path guard; the
// shape assertions live in experiments_test.go and the full-scale
// numbers in EXPERIMENTS.md.
func TestAllFiguresRender(t *testing.T) {
	if testing.Short() {
		t.Skip("rendering evaluation skipped in -short mode")
	}
	rc := RunConfig{WarmupInstr: 60_000, Instructions: 60_000, Seed: 11}
	e := NewEval(rc)

	figures := []struct {
		title string
		gen   func() interface{ String() string }
		rows  []string
	}{
		{"Figure 5", func() interface{ String() string } { return e.Figure5() },
			[]string{"oltp", "apache", "specjbb", "ocean", "barnes", "commercial-avg"}},
		{"Figure 6", func() interface{ String() string } { return e.Figure6() },
			[]string{"non-uniform-shared", "private", "ideal"}},
		{"Figure 7", func() interface{ String() string } { return e.Figure7() },
			[]string{"ROS-replaced", "RWS-invalidated", "2-5 reuses"}},
		{"Figure 8", func() interface{ String() string } { return e.Figure8() },
			[]string{"CMP-NuRAPID-CR", "CMP-NuRAPID-ISC"}},
		{"Figure 9", func() interface{ String() string } { return e.Figure9() },
			[]string{"Closest d-grp", "Farther d-grps"}},
		{"Figure 10", func() interface{ String() string } { return e.Figure10() },
			[]string{"CMP-NuRAPID", "ideal"}},
		{"Figure 11", func() interface{ String() string } { return e.Figure11() },
			[]string{"MIX1", "MIX2", "MIX3", "MIX4", "average"}},
		{"Figure 12", func() interface{ String() string } { return e.Figure12() },
			[]string{"MIX1", "MIX4", "average"}},
	}
	for _, f := range figures {
		s := f.gen().String()
		if !strings.Contains(s, f.title) {
			t.Errorf("%s: missing title in rendering", f.title)
		}
		for _, row := range f.rows {
			if !strings.Contains(s, row) {
				t.Errorf("%s: missing %q:\n%s", f.title, row, s)
			}
		}
	}
}

func TestAblationTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation rendering skipped in -short mode")
	}
	rc := RunConfig{WarmupInstr: 40_000, Instructions: 40_000, Seed: 13}
	e := NewEval(rc)
	tables := map[string]interface{ String() string }{
		"promotion":   e.AblationPromotion(),
		"tags":        e.AblationTagCapacity(),
		"replication": e.AblationReplicationTrigger(),
		"cross":       e.AblationOptimizations(),
		"cmigration":  e.AblationCMigration(),
	}
	for name, tb := range tables {
		s := tb.String()
		if len(s) < 50 || !strings.Contains(s, "oltp") && !strings.Contains(s, "MIX") {
			t.Errorf("ablation %s rendering suspicious:\n%s", name, s)
		}
	}
}
