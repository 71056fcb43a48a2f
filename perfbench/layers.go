package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"cmpnurapid/internal/experiments"
)

// layerTimes is one traced round split by layer. Self times add up by
// construction: workload + cmpsim + every l2 design + trace.timer +
// pool idle = workers × round wall.
type layerTimes struct {
	workers int
	wall    time.Duration
	cells   int
	cellSum time.Duration // Σ cell spans
	idle    time.Duration // workers × wall − cellSum: the pool's own time

	timer time.Duration // what the wrappers themselves cost

	nextCalls    uint64
	workloadNew  time.Duration
	workloadSelf time.Duration

	cmpsimNew  time.Duration
	cmpsimSelf time.Duration
	warmup     time.Duration // Warmup spans, inclusive
	measure    time.Duration // Run spans, inclusive
	invalCalls uint64
	l2Calls    uint64

	designs map[experiments.DesignName]*designTimes
}

// designTimes is one L2 design's layer.
type designTimes struct {
	newD  time.Duration
	self  time.Duration
	calls uint64
	hits  uint64
	comm  uint64
}

// accountRound attributes a traced round's host time to layers. The
// calls into the workload and the L2 are children of cmpsim's Warmup
// and Run spans; the L1 invalidations an L2 calls back are children of
// that L2's Access and belong to cmpsim. A layer's self time is its
// span minus its children's, each child corrected for the timer bias
// the calibration measured, and the wrappers' own cost is booked to
// trace.timer instead of to the caller.
func accountRound(r round, cal calibration) *layerTimes {
	lt := &layerTimes{
		workers: r.workers, wall: r.wall, cells: len(r.cells),
		designs: map[experiments.DesignName]*designTimes{},
	}
	for _, c := range r.cells {
		tr := c.trace
		if tr == nil {
			continue
		}
		next, access := cal.estimate(tr.next), cal.estimate(tr.access)
		comm, inval := cal.estimate(tr.comm), cal.estimate(tr.inval)
		// An Access span contains the invalidations it calls back and
		// those wrappers' overhead; both come out of the L2's share.
		l2Self := access - inval - cal.overhead(tr.inval) + comm
		timer := cal.overhead(tr.next) + cal.overhead(tr.access) + cal.overhead(tr.comm) + cal.overhead(tr.inval)

		lt.cellSum += c.total
		lt.timer += timer
		lt.nextCalls += tr.next.calls
		lt.workloadNew += c.newWL
		lt.workloadSelf += c.newWL + next
		lt.cmpsimNew += c.newSystem
		lt.warmup += c.warmup
		lt.measure += c.measure
		lt.cmpsimSelf += c.newSystem + c.warmup + c.measure - next - l2Self - timer
		lt.invalCalls += tr.inval.calls
		lt.l2Calls += tr.access.calls

		d := lt.designs[tr.design]
		if d == nil {
			d = &designTimes{}
			lt.designs[tr.design] = d
		}
		d.newD += c.newDesign
		d.self += c.newDesign + l2Self
		d.calls += tr.access.calls
		d.hits += tr.hits
		d.comm += tr.comm.calls
	}
	lt.idle = time.Duration(lt.workers)*lt.wall - lt.cellSum
	return lt
}

// metrics returns the per-layer metrics BENCHMARK.json names, keyed by
// name. untracedWall is the median untraced round of the same run.
func (lt *layerTimes) metrics(untracedWall time.Duration) map[string]metric {
	steps := float64(lt.nextCalls)
	capacity := float64(lt.workers) * lt.wall.Seconds()
	m := map[string]metric{
		"workload.next_calls": {steps, "count"},
		"workload.next_ns":    {float64(lt.workloadSelf-lt.workloadNew) / steps, "ns"},
		"workload.self_s":     {lt.workloadSelf.Seconds(), "s"},
		"workload.new_s":      {lt.workloadNew.Seconds(), "s"},

		"cmpsim.new_s":               {lt.cmpsimNew.Seconds(), "s"},
		"cmpsim.self_s":              {lt.cmpsimSelf.Seconds(), "s"},
		"cmpsim.step_ns":             {float64(lt.cmpsimSelf-lt.cmpsimNew) / steps, "ns"},
		"cmpsim.warmup_s":            {lt.warmup.Seconds(), "s"},
		"cmpsim.measure_s":           {lt.measure.Seconds(), "s"},
		"cmpsim.l2_per_step":         {float64(lt.l2Calls) / steps, "count/step"},
		"cmpsim.l1_invalidate_calls": {float64(lt.invalCalls), "count"},

		"experiments.cells":          {float64(lt.cells), "count"},
		"experiments.pool_busy_frac": {lt.cellSum.Seconds() / capacity, "fraction"},
		"experiments.pool_idle_s":    {lt.idle.Seconds(), "s"},

		"trace.overhead_frac":  {(lt.wall - untracedWall).Seconds() / untracedWall.Seconds(), "fraction"},
		"trace.timer_frac":     {lt.timer.Seconds() / capacity, "fraction"},
		"trace.accounted_frac": {(capacity - lt.timer.Seconds()) / (float64(lt.workers) * untracedWall.Seconds()), "fraction"},
	}
	for _, name := range fiveDesigns {
		d := lt.designs[name]
		if d == nil {
			d = &designTimes{}
		}
		p := "l2." + string(name) + "."
		m[p+"new_s"] = metric{d.newD.Seconds(), "s"}
		m[p+"access_calls"] = metric{float64(d.calls), "count"}
		m[p+"access_ns"] = metric{ratio(float64(d.self-d.newD), float64(d.calls)), "ns"}
		m[p+"self_s"] = metric{d.self.Seconds(), "s"}
		m[p+"hit_frac"] = metric{ratio(float64(d.hits), float64(d.calls)), "fraction"}
		if name == experiments.NuRAPID {
			m[p+"comm_probe_calls"] = metric{float64(d.comm), "count"}
		}
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeReport renders the traced report: each layer's self time, its
// share of the round's worker time, and its exact call counts.
func (lt *layerTimes) writeReport(w io.Writer, header string, untracedWall time.Duration) {
	capacity := time.Duration(lt.workers) * lt.wall
	share := func(d time.Duration) string { return fmt.Sprintf("%5.1f%%", 100*d.Seconds()/capacity.Seconds()) }
	fmt.Fprintln(w, header)
	fmt.Fprintf(w, "%-34s %10s %7s  %s\n", "layer", "self_s", "share", "counts")
	row := func(name string, self time.Duration, counts string) {
		fmt.Fprintf(w, "%-34s %10.4f %7s  %s\n", name, self.Seconds(), share(self), counts)
	}
	row("experiments (pool idle)", lt.idle, fmt.Sprintf("cells=%d workers=%d", lt.cells, lt.workers))
	row("workload", lt.workloadSelf, fmt.Sprintf("next=%d", lt.nextCalls))
	row("cmpsim", lt.cmpsimSelf, fmt.Sprintf("steps=%d l2_access=%d l1_invalidate=%d", lt.nextCalls, lt.l2Calls, lt.invalCalls))
	var order []experiments.DesignName
	for name := range lt.designs {
		order = append(order, name)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	sum := lt.idle + lt.workloadSelf + lt.cmpsimSelf + lt.timer
	for _, name := range order {
		d := lt.designs[name]
		row("l2."+string(name), d.self, fmt.Sprintf("access=%d hits=%d comm_probe=%d", d.calls, d.hits, d.comm))
		sum += d.self
	}
	row("trace (timer cost)", lt.timer, "")
	row("total", sum, fmt.Sprintf("= %d worker(s) x %.4f s traced wall", lt.workers, lt.wall.Seconds()))
	fmt.Fprintf(w, "untraced wall %.4f s; (traced worker time - timer cost) / untraced worker time = %.3f\n",
		untracedWall.Seconds(), (capacity-lt.timer).Seconds()/(time.Duration(lt.workers)*untracedWall).Seconds())
}
