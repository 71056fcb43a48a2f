package experiments

import (
	"fmt"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/core"
	"cmpnurapid/internal/l2"
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

// busRun carries one bandwidth measurement: the simulation results
// plus the bus counters read from the live system (Results alone does
// not expose them).
type busRun struct {
	results cmpsim.Results
	busTx   uint64
	busWait memsys.Cycles
}

func bandwidthKey(in input, d DesignName) string { return "bw/" + in.name + "/" + string(d) }

// bandwidthRun memoizes one (workload, design) traffic measurement.
// The bus counters are read off the live L2 inside the fill; the memo
// keeps only the numbers, not the cache.
func (e *Eval) bandwidthRun(in input, d DesignName) busRun {
	return e.memo(bandwidthKey(in, d), func() any {
		w := in.new()
		l2d := NewDesign(d)
		br := busRun{results: simulate(l2d, w, e.RC)}
		switch l2d := l2d.(type) {
		case *core.Cache:
			br.busTx, br.busWait = l2d.Bus().TotalTransactions(), l2d.Bus().WaitCycles()
		case *l2.Private:
			br.busTx, br.busWait = l2d.Bus().TotalTransactions(), l2d.Bus().WaitCycles()
		}
		return br
	}).(busRun)
}

func (e *Eval) bandwidthCells() []Cell {
	var cells []Cell
	for _, in := range e.bandwidthInputs() {
		for _, d := range bandwidthDesigns {
			cells = append(cells, Cell{Key: bandwidthKey(in, d), Run: func() { e.bandwidthRun(in, d) }})
		}
	}
	return cells
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
//   - Bus health overall: transactions per 1 000 instructions and
//     cumulative arbitration wait.
func (e *Eval) BandwidthReport() *stats.Table {
	t := stats.NewTable("Bandwidth: bus and d-group traffic per 1000 instructions",
		"Workload", "Design", "Bus txns", "Bus wait cyc", "Demotions", "Promotions", "Write-throughs")
	for _, in := range e.bandwidthInputs() {
		for _, d := range bandwidthDesigns {
			br := e.bandwidthRun(in, d)
			r := br.results
			per1k := func(n uint64) string {
				return fmt.Sprintf("%.2f", 1000*float64(n)/float64(r.Instructions))
			}
			var wt uint64
			for _, c := range r.Cores {
				wt += c.Writethroughs
			}
			s := r.L2
			t.Row(in.name, string(d), per1k(br.busTx), fmt.Sprint(br.busWait),
				per1k(s.Demotions), per1k(s.Promotions), per1k(wt))
		}
	}
	return t
}
