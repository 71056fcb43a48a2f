package experiments

import (
	"fmt"

	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/stats"
	"cmpnurapid/internal/workload"
)

// bandwidthInputs are the two traffic cases the report measures:
// OLTP exercises the write-through/BusUpg claim; MIX1 (non-uniform
// demand) exercises the demotion-bandwidth claim.
func (e *Eval) bandwidthInputs() []input {
	return []input{e.mtInput(workload.OLTP(e.RC.Seed)), e.mpInput(0)}
}

// bandwidthDesigns are the designs whose bus traffic is compared.
var bandwidthDesigns = []DesignName{Private, NuRAPID}

func (e *Eval) bandwidthCells() []Cell {
	return e.cells(e.bandwidthInputs(), designs(bandwidthDesigns...)...)
}

// issuedBusTxns is the number of transactions issued on the bus: the
// snoop flushes and pointer returns in the same distribution answer
// them and occupy no arbitration slot.
func issuedBusTxns(s *memsys.L2Stats) uint64 {
	var n uint64
	for _, l := range []string{memsys.LabelBusRd, memsys.LabelBusRdX, memsys.LabelBusUpg, memsys.LabelBusRepl} {
		n += s.BusTransactions.Count(l)
	}
	return n
}

// BandwidthReport quantifies the traffic claims the paper makes
// without a figure:
//
//   - §3.3.2: "the demotions are not frequent enough to cause a
//     bandwidth problem in the tag arrays or data d-groups" — reported
//     as demotions per 1 000 retired instructions.
//   - §3.2: "write through for C blocks is not likely to cause
//     bandwidth problems" — reported as write-throughs and posted
//     BusUpg invalidations per 1 000 instructions.
//   - Bus health overall: issued transactions per 1 000 instructions
//     and cumulative arbitration wait.
//
// Every column reads the measurement window's Results, so warm-up
// traffic is excluded.
func (e *Eval) BandwidthReport() *stats.Table {
	t := stats.NewTable("Bandwidth: bus and d-group traffic per 1000 instructions",
		"Workload", "Design", "Bus txns", "Bus wait cyc", "Demotions", "Promotions", "Write-throughs")
	for _, in := range e.bandwidthInputs() {
		for _, d := range bandwidthDesigns {
			r := e.result(design(d), in)
			per1k := func(n uint64) string {
				return fmt.Sprintf("%.2f", 1000*float64(n)/float64(r.Instructions))
			}
			var wt uint64
			for _, c := range r.Cores {
				wt += c.Writethroughs
			}
			s := r.L2
			t.Row(in.name, string(d), per1k(issuedBusTxns(s)), fmt.Sprint(s.BusWait),
				per1k(s.Demotions), per1k(s.Promotions), per1k(wt))
		}
	}
	return t
}
