// Package experiments regenerates every table and figure in the
// paper's evaluation (§5). Each FigureN/TableN function runs the
// required simulations and returns structured results plus a formatted
// text table whose rows mirror the paper's figure series. The cmd/
// experiments binary and the repository benchmarks drive these.
package experiments

import (
	"fmt"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/core"
	"cmpnurapid/internal/l2"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/stats"
	"cmpnurapid/internal/topo"
	"cmpnurapid/internal/workload"
)

// RunConfig scales the simulations. The paper runs ~1 G instructions
// per core in Simics; the defaults here are sized so the full
// evaluation regenerates in minutes while distributions are stable.
type RunConfig struct {
	WarmupInstr  int    // per-core warm-up instructions before the measurement window
	Instructions uint64 // per-core instructions measured
	Seed         uint64
	// MaxCycles is the hard per-phase clock ceiling passed through to
	// cmpsim.Config.MaxCycles; 0 derives a ceiling from the instruction
	// budget (see docs/ROBUSTNESS.md).
	MaxCycles memsys.Cycles
}

// Validate panics unless the configuration can produce a meaningful
// measurement window. simulate, the one run path, calls it before
// every cell; binaries building a RunConfig from flags call it first
// too, so a bad flag is a usage error rather than a failed cell.
func (rc RunConfig) Validate() {
	if rc.WarmupInstr < 0 {
		panic("experiments: negative warm-up instruction count")
	}
	if rc.Instructions == 0 {
		panic("experiments: zero measured instructions")
	}
	if rc.MaxCycles < 0 {
		panic("experiments: negative MaxCycles (0 derives a ceiling from the instruction budget)")
	}
}

// DefaultRunConfig is the standard evaluation scale: the warm-up must
// touch the multi-megabyte footprints enough times that the
// measurement window reflects steady state rather than cold misses.
func DefaultRunConfig() RunConfig {
	return RunConfig{WarmupInstr: 5_000_000, Instructions: 3_000_000, Seed: 42}
}

// QuickRunConfig is a fast smoke-scale configuration for tests; its
// short warm-up leaves more cold misses in the window, so tests using
// it assert ordering rather than absolute fractions.
func QuickRunConfig() RunConfig {
	return RunConfig{WarmupInstr: 400_000, Instructions: 400_000, Seed: 42}
}

// DesignName identifies one evaluated cache organization.
type DesignName string

const (
	UniformShared DesignName = "uniform-shared"
	NonUniform    DesignName = "non-uniform-shared"
	Private       DesignName = "private"
	Ideal         DesignName = "ideal"
	NuRAPID       DesignName = "CMP-NuRAPID"
	NuRAPIDCR     DesignName = "CMP-NuRAPID-CR"  // CR only (Figure 8c)
	NuRAPIDISC    DesignName = "CMP-NuRAPID-ISC" // ISC only (Figure 8d)
	// PrivateUpdate is the update-protocol alternative §3.2 argues
	// against (extension baseline, not in the paper's figures).
	PrivateUpdate DesignName = "private-update"
	// DNUCA is CMP-DNUCA from [6], whose negative result the paper
	// cites: migration without replication loses to static SNUCA
	// (extension baseline, not in the paper's figures).
	DNUCA DesignName = "non-uniform-shared-dynamic"
)

// designTable is the one list of designs, in the order cmpsim -list
// prints them, each with its one constructor at latencies l.
var designTable = []struct {
	name  DesignName
	build func(l topo.Latencies) memsys.L2
}{
	{UniformShared, func(l topo.Latencies) memsys.L2 { return l2.NewUniformShared(l) }},
	{NonUniform, func(l topo.Latencies) memsys.L2 { return l2.NewSNUCA(l2.Static, l) }},
	{Private, func(l topo.Latencies) memsys.L2 { return l2.NewPrivate(l2.MESI, l) }},
	{Ideal, func(l topo.Latencies) memsys.L2 { return l2.NewIdeal(l) }},
	{NuRAPID, func(l topo.Latencies) memsys.L2 { return core.New(core.ConfigAt(l)) }},
	{NuRAPIDCR, func(l topo.Latencies) memsys.L2 {
		cfg := core.ConfigAt(l)
		cfg.EnableISC = false
		return core.New(cfg)
	}},
	{NuRAPIDISC, func(l topo.Latencies) memsys.L2 {
		cfg := core.ConfigAt(l)
		cfg.Replication = core.ReplicateFirstUse
		return core.New(cfg)
	}},
	{PrivateUpdate, func(l topo.Latencies) memsys.L2 { return l2.NewPrivate(l2.Update, l) }},
	{DNUCA, func(l topo.Latencies) memsys.L2 { return l2.NewSNUCA(l2.Migrate, l) }},
}

// DesignNames lists every design NewDesign builds.
func DesignNames() []DesignName {
	names := make([]DesignName, len(designTable))
	for i, e := range designTable {
		names[i] = e.name
	}
	return names
}

// NewDesign constructs a fresh instance of the named design at the
// paper's 8 MB configuration.
func NewDesign(d DesignName) memsys.L2 { return newDesign(d, topo.Derive()) }

// newDesign constructs d at the latencies (and size) l.
func newDesign(d DesignName, l topo.Latencies) memsys.L2 {
	for _, e := range designTable {
		if e.name == d {
			return e.build(l)
		}
	}
	panic(fmt.Sprintf("experiments: unknown design %q", d))
}

// simulate is the package's one run path: build the system around l2,
// warm it up, run the measurement window. Every experiment cell comes
// here, so rc.MaxCycles bounds every simulation the evaluation runs.
// The caller keeps l2, so reports that read live structural state
// (bus counters, occupancy) read it after simulate returns.
func simulate(l2 memsys.L2, w cmpsim.Workload, rc RunConfig) cmpsim.Results {
	rc.Validate()
	cfg := cmpsim.DefaultConfig()
	cfg.MaxCycles = rc.MaxCycles
	sys := cmpsim.New(cfg, l2, w)
	sys.Warmup(rc.WarmupInstr)
	return sys.Run(rc.Instructions)
}

// Run simulates one (design, workload) pair.
func Run(d DesignName, w cmpsim.Workload, rc RunConfig) cmpsim.Results {
	return simulate(NewDesign(d), w, rc)
}

// Table1 regenerates the paper's Table 1 (cache and bus latencies)
// from the cacti timing model and the floorplan.
func Table1() *stats.Table {
	l := topo.Derive()
	t := stats.NewTable("Table 1: 8 MB Cache and Bus Latencies (cycles)",
		"Cache and Component", "Latency")
	t.Row("Shared 8 MB 32-way, 4 ports (latency of 8-way, 1-port)", "")
	t.Rowf("  Tag (includes wire delay of central tag)", "%d", l.SharedTag)
	t.Rowf("  Data", "%d", l.SharedData)
	t.Rowf("  Total", "%d", l.SharedTotal)
	t.Row("Private 2 MB 8-way, 1 port", "")
	t.Rowf("  Tag", "%d", l.PrivateTag)
	t.Rowf("  Data", "%d", l.PrivateData)
	t.Rowf("  Total", "%d", l.PrivateTotal)
	t.Row("CMP-NuRAPID with four 2 MB d-groups", "")
	t.Rowf("  Tag w/ extra tag space", "%d", l.NuRAPIDTag)
	t.Rowf("  Data d-groups (a,b,c,d)", "%d,%d,%d,%d",
		l.DGroupData[0][0], l.DGroupData[0][1], l.DGroupData[0][2], l.DGroupData[0][3])
	t.Rowf("Pipelined split-transaction bus", "%d", l.Bus)
	return t
}

// Table2 lists the multiprogrammed workloads.
func Table2() *stats.Table {
	t := stats.NewTable("Table 2: Multiprogrammed Workloads", "Workload", "Benchmarks")
	apps := workload.MixApps()
	for _, name := range []string{"MIX1", "MIX2", "MIX3", "MIX4"} {
		a := apps[name]
		t.Row(name, fmt.Sprintf("%s, %s, %s, %s", a[0].Name, a[1].Name, a[2].Name, a[3].Name))
	}
	return t
}

// Table3 lists the multithreaded workloads and their synthetic-profile
// parameters (the reproduction's analogue of the paper's workload
// descriptions). It takes the run seed so the printed profiles always
// describe the streams the figures actually ran.
func Table3(seed uint64) *stats.Table {
	t := stats.NewTable("Table 3: Multithreaded Workloads (synthetic profiles)",
		"Workload", "Instr", "RO", "RW", "Private/core", "Footprint")
	for _, p := range workload.Multithreaded(seed) {
		perCore := (p.PrivateBlocks[0] + p.CodeBlocks + p.ROBlocks + p.RWBlocks) * topo.BlockBytes
		t.Row(p.Name,
			stats.Pct(p.InstrFrac), stats.Pct(p.ROFrac), stats.Pct(p.RWFrac),
			fmt.Sprintf("%.1f MB", float64(p.PrivateBlocks[0]*topo.BlockBytes)/(1<<20)),
			fmt.Sprintf("%.1f MB/core", float64(perCore)/(1<<20)))
	}
	return t
}

// accessRow formats an L2 access distribution as Figure 5/8-style
// cells: hits, ROS, RWS, capacity fractions.
func accessRow(s *memsys.L2Stats) []string {
	return []string{
		stats.Pct(s.Accesses.Frac(memsys.LabelHit)),
		stats.Pct(s.Accesses.Frac(memsys.LabelROS)),
		stats.Pct(s.Accesses.Frac(memsys.LabelRWS)),
		stats.Pct(s.Accesses.Frac(memsys.LabelCapacity)),
	}
}
