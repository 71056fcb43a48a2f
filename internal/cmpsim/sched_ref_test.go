package cmpsim

// This file keeps the original scheduler loop alive as a test-only
// reference implementation. runUntil must produce the exact step
// sequence this loop produces — same laggard on every iteration, ties
// to the lowest core index by scan order — while detecting completion
// with an O(1) counter instead of this loop's per-step done() sweep.
// The differential tests (sched_test.go) run both loops over identical
// configs and workloads and assert identical step-order traces,
// Results, and abort diagnostics. The reference is deliberately a
// verbatim copy of the old loop rather than a call into runUntil: a
// shared helper could hide a shared bug.

// runUntilScan is the reference loop: a linear laggard scan (strict <,
// so ties resolve to the lowest index) and a caller-supplied done()
// that sweeps every core per iteration.
func (s *System) runUntilScan(instrPerCore uint64, phase phaseKind, done func() bool) {
	limit, derived := s.cycleCeiling(instrPerCore, phase)
	for !done() {
		pick := 0
		for c, cs := range s.cores {
			if cs.cycles < s.cores[pick].cycles {
				pick = c
			}
		}
		now := s.cores[pick].cycles
		if now > limit {
			panic(&CycleLimitExceeded{
				Limit: limit, Derived: derived, Now: now,
				Design: s.l2.Name(), Workload: s.stream.Name(),
				Cores: s.snapshotCores(), BusBacklog: s.busBacklog(now),
			})
		}
		s.step(s.cores[pick])
	}
}

// warmupScan mirrors Warmup over the scan loop, including the
// historical all-cores done() sweep.
func (s *System) warmupScan(instrPerCore int) {
	s.runUntilScan(uint64(instrPerCore), warmupPhase, func() bool {
		for _, cs := range s.cores {
			if cs.instructions < uint64(instrPerCore) {
				return false
			}
		}
		return true
	})
	for _, cs := range s.cores {
		cs.baseCycles = cs.cycles
		cs.baseInstructions = cs.instructions
		cs.endValid = false
		cs.L1DHits, cs.L1DMisses = 0, 0
		cs.L1IHits, cs.L1IMisses = 0, 0
		cs.Writethroughs = 0
	}
	s.l2.Stats().Reset()
}

// runScan mirrors Run over the scan loop, including the historical
// sweep that snapshots quantum completion.
func (s *System) runScan(instrPerCore uint64) Results {
	s.runUntilScan(instrPerCore, runPhase, func() bool {
		all := true
		for _, cs := range s.cores {
			if cs.endValid {
				continue
			}
			if cs.instructions-cs.baseInstructions >= instrPerCore {
				cs.endCycles = cs.cycles
				cs.endInstructions = cs.instructions
				cs.endValid = true
				continue
			}
			all = false
		}
		return all
	})
	return s.results()
}
