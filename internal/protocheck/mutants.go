package protocheck

import (
	"fmt"
	"sort"

	"cmpnurapid/internal/coherence"
)

// Mutants are deliberately broken variants of MESIC and the update
// protocol used to prove the checker actually catches protocol bugs
// (TestMutantsAreCaught). Each one re-introduces a plausible
// hand-coding mistake.
var mutants = map[string]func() *Protocol{
	// restore-m-to-s puts back the MESI M→S arc the paper deletes: an
	// M holder snooping a BusRd hands the reader a C copy while itself
	// dropping to S, violating "S never coexists with C".
	"restore-m-to-s": func() *Protocol {
		p := MESIC()
		p.Name = "MESIC(restore-m-to-s)"
		p.Snoop = func(s coherence.State, op coherence.BusOp) (coherence.State, coherence.SnoopAction) {
			if s == coherence.Modified && op == coherence.BusRd {
				return coherence.Shared, coherence.Flush
			}
			return coherence.MESICSnoop(s, op)
		}
		return p
	},
	// exit-c-on-busrdx lets a write miss steal a communication block
	// back to I, breaking the only-replacement-exits-C invariant.
	"exit-c-on-busrdx": func() *Protocol {
		p := MESIC()
		p.Name = "MESIC(exit-c-on-busrdx)"
		p.Snoop = func(s coherence.State, op coherence.BusOp) (coherence.State, coherence.SnoopAction) {
			if s == coherence.Communication && op == coherence.BusRdX {
				return coherence.Invalid, coherence.Flush
			}
			return coherence.MESICSnoop(s, op)
		}
		return p
	},
	// panic-on-shared-busrd makes a reachable snoop input panic, the
	// failure mode the no-panics-on-reachable-inputs check exists for.
	"panic-on-shared-busrd": func() *Protocol {
		p := MESIC()
		p.Name = "MESIC(panic-on-shared-busrd)"
		p.Snoop = func(s coherence.State, op coherence.BusOp) (coherence.State, coherence.SnoopAction) {
			if s == coherence.Shared && op == coherence.BusRd {
				panic("protocheck: seeded mutant panic")
			}
			return coherence.MESICSnoop(s, op)
		}
		return p
	},
	// keep-owner-on-busupg lets the old owner keep write-back duty when
	// another sharer writes, so the block has two dirty owners.
	"keep-owner-on-busupg": func() *Protocol {
		p := Update()
		p.Name = "Update(keep-owner-on-busupg)"
		p.Snoop = func(s coherence.State, op coherence.BusOp) (coherence.State, coherence.SnoopAction) {
			if s == coherence.Owned && op == coherence.BusUpg {
				return coherence.Owned, coherence.InvalidateL1
			}
			return coherence.UpdateSnoop(s, op)
		}
		return p
	},
	// skip-update-on-busupg lets a clean sharer ignore a write's update
	// and keep its old data.
	"skip-update-on-busupg": func() *Protocol {
		p := Update()
		p.Name = "Update(skip-update-on-busupg)"
		p.Snoop = func(s coherence.State, op coherence.BusOp) (coherence.State, coherence.SnoopAction) {
			if s == coherence.Shared && op == coherence.BusUpg {
				return coherence.Shared, coherence.None
			}
			return coherence.UpdateSnoop(s, op)
		}
		return p
	},
}

// Mutant returns the named seeded-broken protocol.
func Mutant(name string) (*Protocol, error) {
	if build, ok := mutants[name]; ok {
		return build(), nil
	}
	return nil, fmt.Errorf("protocheck: unknown mutant %q (have %v)", name, MutantNames())
}

// MutantNames lists the available mutants, sorted.
func MutantNames() []string {
	names := make([]string, 0, len(mutants))
	for name := range mutants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
