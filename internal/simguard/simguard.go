// Package simguard is the simulator's robustness layer: the structured
// cycle-limit diagnostic and deterministic seeded fault injectors.
//
// The reproduction's claims rest on dozens of independent (design,
// workload) simulations. Before this package, a single livelocked or
// panicking cell either spun forever or killed the whole experiment
// run with nothing to show for the cells that were healthy. simguard
// follows the chaos-testing discipline of large-scale simulator stacks
// (FoundationDB-style deterministic fault injection; gem5's
// forward-progress assertions):
//
//   - Every op does work: cmpsim.System refuses an op that retires
//     nothing, so every scheduler step advances the picked core's
//     clock by at least one cycle.
//   - A hard cycle ceiling (cmpsim.Config.MaxCycles, derived from the
//     instruction budget when unset) therefore ends every phase that
//     does not complete, aborting with a *CycleLimitExceeded carrying
//     per-core architectural state, the outstanding memory reference,
//     the coherence states of those lines and the bus arbitration
//     backlog.
//   - Fault injectors (inject.go) perturb bus arbitration and L2
//     latency from internal/rng seeds, so every chaos run reproduces
//     bit-identically from its seed; adversarial workload profiles
//     live in internal/workload (Adversarial).
//   - The experiment scheduler (internal/experiments) recovers cell
//     panics and ceiling aborts into CellFailures, keeps running the
//     remaining cells, and cmd/experiments renders failed experiments
//     as ERR with a failure report after the tables.
//
// See docs/ROBUSTNESS.md for the termination argument, the injector
// catalog, the failure-report format and the reproduction recipe.
package simguard
