package experiments

import (
	"cmpnurapid/internal/core"
	"cmpnurapid/internal/stats"
)

// This file regenerates the design-choice ablations DESIGN.md calls
// out: promotion policy (§3.3.1 prefers fastest in CMPs), tag-array
// capacity (§2.2.2 doubles instead of quadrupling), the CR replication
// trigger (§3.1 copies on the second use), and the CR/ISC optimization
// matrix (§5.1.2), plus the extension baselines. Each is a speedup
// table over CMP-NuRAPID config variants; a column equal to an existing
// design (the default config is CMP-NuRAPID itself) names that design,
// so it reuses the figures' simulation instead of running a duplicate.

// ablPromotion compares the fastest and next-fastest promotion policies
// against no promotion on the multiprogrammed mixes, where capacity
// stealing matters most. The paper found fastest more effective in
// CMPs because "one core's next-fastest d-group is another core's
// fastest" (§3.3.1). Fastest is the default policy.
var ablPromotion = speedupTable{
	title: "Ablation: CS promotion policy (weighted speedup vs no promotion)",
	heads: []string{"fastest", "next-fastest"},
	rows:  mixRows,
	base:  nurapidVariant("promotion=none", func(c *core.Config) { c.Promotion = core.NoPromotion }),
	cols: []config{
		design(NuRAPID),
		nurapidVariant("promotion=next-fastest", func(c *core.Config) { c.Promotion = core.NextFastest }),
	},
}

// ablTags compares 1x, 2x, and 4x tag-array capacity on the commercial
// workloads. The paper found doubling performs almost as well as
// quadrupling at a quarter of the capacity overhead (§2.2.2); 2x is the
// default.
var ablTags = speedupTable{
	title: "Ablation: private tag capacity (speedup vs uniform-shared)",
	heads: []string{"1x tags", "2x tags (paper)", "4x tags"},
	rows:  commercialRows, base: design(UniformShared),
	cols: []config{
		nurapidVariant("tags=1x", func(c *core.Config) { c.TagSets /= 2 }),
		design(NuRAPID),
		nurapidVariant("tags=4x", func(c *core.Config) { c.TagSets *= 2 }),
	},
}

// ablReplication compares replicating on first use (the ISC-only
// design), second use (CR, the default), and never, on the commercial
// workloads (§3.1: not copying on the first use saves capacity for the
// ~40% of blocks never reused; copying on the second avoids slow
// repeat accesses).
var ablReplication = speedupTable{
	title: "Ablation: CR replication trigger (speedup vs uniform-shared)",
	heads: []string{"first use", "second use (CR)", "never"},
	rows:  commercialRows, base: design(UniformShared),
	cols: []config{
		design(NuRAPIDISC),
		design(NuRAPID),
		nurapidVariant("replication=never", func(c *core.Config) { c.Replication = core.ReplicateNever }),
	},
}

// ablOptimizations crosses CR and ISC on the commercial workloads
// (Figure 8's one-at-a-time runs, completed to the full 2x2 matrix).
// CR off means replicating on first use.
var ablOptimizations = speedupTable{
	title: "Ablation: CR x ISC (speedup vs uniform-shared)",
	heads: []string{"neither", "CR only", "ISC only", "both"},
	rows:  commercialRows, base: design(UniformShared),
	cols: []config{
		nurapidVariant("replication=first-use,isc=off", func(c *core.Config) {
			c.Replication = core.ReplicateFirstUse
			c.EnableISC = false
		}),
		design(NuRAPIDCR),
		design(NuRAPIDISC),
		design(NuRAPID),
	},
}

// ablCMigration evaluates the stuck-C-copy migration extension (the
// paper's §3.2 future-work item) on the commercial workloads:
// threshold 0 is the published design; small thresholds let a copy
// abandoned by its host migrate to the reader still using it.
var ablCMigration = speedupTable{
	title: "Extension: stuck-C-copy migration (speedup vs uniform-shared)",
	heads: []string{"off (paper)", "threshold 4", "threshold 16"},
	rows:  commercialRows, base: design(UniformShared),
	cols: []config{
		design(NuRAPID),
		nurapidVariant("cmigration=4", func(c *core.Config) { c.CMigrationThreshold = 4 }),
		nurapidVariant("cmigration=16", func(c *core.Config) { c.CMigrationThreshold = 16 }),
	},
}

// ablUpdate pits in-situ communication against the update-protocol
// alternative §3.2 dismisses: both avoid coherence misses on
// read-write sharing, but the update protocol pays a bus broadcast per
// shared write and keeps a copy per sharer, while ISC keeps one copy
// and posts invalidations only for L1 freshness.
var ablUpdate = speedupTable{
	title: "Extension: invalidate vs update vs ISC (speedup vs uniform-shared)",
	heads: []string{"private (invalidate)", "private-update", "CMP-NuRAPID (ISC)"},
	rows:  commercialRows, base: design(UniformShared),
	cols: designs(Private, PrivateUpdate, NuRAPID),
}

// ablDNUCA extends Figure 6 with the CMP-DNUCA baseline [6] whose
// negative result the paper cites.
var ablDNUCA = speedupTable{
	title: "Extension: CMP-DNUCA vs CMP-SNUCA vs CMP-NuRAPID (speedup vs uniform-shared)",
	heads: []string{"SNUCA (static)", "DNUCA (migration)", "CMP-NuRAPID"},
	rows:  commercialRows, base: design(UniformShared),
	cols: designs(NonUniform, DNUCA, NuRAPID),
}

// AblationPromotion regenerates the promotion-policy ablation (see
// ablPromotion).
func (e *Eval) AblationPromotion() *stats.Table { return ablPromotion.render(e) }

// AblationTagCapacity regenerates the tag-capacity ablation (see
// ablTags).
func (e *Eval) AblationTagCapacity() *stats.Table { return ablTags.render(e) }

// AblationReplicationTrigger regenerates the replication-trigger
// ablation (see ablReplication).
func (e *Eval) AblationReplicationTrigger() *stats.Table { return ablReplication.render(e) }

// AblationOptimizations regenerates the CR x ISC matrix (see
// ablOptimizations).
func (e *Eval) AblationOptimizations() *stats.Table { return ablOptimizations.render(e) }

// AblationCMigration regenerates the C-migration extension (see
// ablCMigration).
func (e *Eval) AblationCMigration() *stats.Table { return ablCMigration.render(e) }
