package main

import (
	"fmt"
	"time"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/experiments"
	"cmpnurapid/internal/memsys"
)

// sampleEvery sets how many wrapped calls share one timed call. Every
// call is counted; reading the clock around every call would cost more
// than most calls do, so one call in sampleEvery, on average, is timed
// and the layer's time is the sampled mean times the exact call count.
const sampleEvery = 64

// span accumulates one wrapped call site.
type span struct {
	calls   uint64 // every call
	next    uint64 // number of the next call to time
	sampled uint64 // the timed subset
	ns      int64  // summed host time of the timed calls
}

// cellTrace is one cell's record of the calls it made into the
// workload and L2 layers. Each cell owns its record, so cells running
// concurrently never share one.
type cellTrace struct {
	design experiments.DesignName
	rng    uint64 // xorshift state choosing which calls are timed

	next   span // workload Next
	access span // L2 Access
	comm   span // L2 IsCommunication
	inval  span // L1 invalidations the L2 calls back into cmpsim
	hits   uint64
}

func newCellTrace(d experiments.DesignName) *cellTrace {
	t := &cellTrace{design: d, rng: 0x9e3779b97f4a7c15}
	for _, s := range []*span{&t.next, &t.access, &t.comm, &t.inval} {
		s.next = t.gap()
	}
	return t
}

// gap draws the distance to a span's next timed call: deterministic,
// uniform on [1, 2*sampleEvery-1], so timed calls average one in
// sampleEvery without locking onto any period in the call stream.
func (t *cellTrace) gap() uint64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return 1 + t.rng%(2*sampleEvery-1)
}

// timed counts a call on s and reports whether to time it. The
// untimed path is an increment and a compare, so the wrappers cost
// little beyond the timed calls' clock reads.
func (t *cellTrace) timed(s *span) bool {
	s.calls++
	if s.calls != s.next {
		return false
	}
	s.next += t.gap()
	return true
}

func (s *span) add(d time.Duration) {
	s.sampled++
	s.ns += int64(d)
}

// tracedWorkload counts and samples calls into the workload layer.
type tracedWorkload struct {
	inner cmpsim.Workload
	t     *cellTrace
}

func (t *cellTrace) wrapWorkload(w cmpsim.Workload) cmpsim.Workload {
	return &tracedWorkload{inner: w, t: t}
}

func (w *tracedWorkload) Next(core int) cmpsim.Op {
	if !w.t.timed(&w.t.next) {
		return w.inner.Next(core)
	}
	start := time.Now() // synccheck:nondet host timing for the benchmark report; never reaches results
	op := w.inner.Next(core)
	w.t.next.add(time.Since(start)) // synccheck:nondet host timing for the benchmark report; never reaches results
	return op
}

func (w *tracedWorkload) Name() string { return w.inner.Name() }

// tracedL2 counts and samples calls into one L2 design. It implements
// only memsys.L2; the types below add exactly the optional interfaces
// the wrapped design implements, because cmpsim changes behaviour on
// them (a design without L1Coherent gets directory-mode L1 coherence).
type tracedL2 struct {
	inner memsys.L2
	t     *cellTrace
}

func (l *tracedL2) Access(now memsys.Cycle, core int, addr memsys.Addr, write bool) memsys.Result {
	var res memsys.Result
	if l.t.timed(&l.t.access) {
		start := time.Now() // synccheck:nondet host timing for the benchmark report; never reaches results
		res = l.inner.Access(now, core, addr, write)
		l.t.access.add(time.Since(start)) // synccheck:nondet host timing for the benchmark report; never reaches results
	} else {
		res = l.inner.Access(now, core, addr, write)
	}
	if res.Category == memsys.Hit {
		l.t.hits++
	}
	return res
}

func (l *tracedL2) Name() string           { return l.inner.Name() }
func (l *tracedL2) Stats() *memsys.L2Stats { return l.inner.Stats() }

// setL1Invalidate hands the design a callback that counts and samples
// the L1 invalidations it makes; that time belongs to cmpsim.
func (l *tracedL2) setL1Invalidate(fn func(core int, addr memsys.Addr)) {
	t := l.t
	l.inner.(memsys.L1Invalidator).SetL1Invalidate(func(core int, addr memsys.Addr) {
		if !t.timed(&t.inval) {
			fn(core, addr)
			return
		}
		start := time.Now() // synccheck:nondet host timing for the benchmark report; never reaches results
		fn(core, addr)
		t.inval.add(time.Since(start)) // synccheck:nondet host timing for the benchmark report; never reaches results
	})
}

// tracedShared adds what the shared designs implement: L1
// invalidation and line-state probes.
type tracedShared struct{ *tracedL2 }

func (l tracedShared) SetL1Invalidate(fn func(core int, addr memsys.Addr)) { l.setL1Invalidate(fn) }
func (l tracedShared) LineState(core int, addr memsys.Addr) string {
	return l.inner.(memsys.LineStateProber).LineState(core, addr)
}

// tracedSnoopy adds what the bus-based private designs implement on
// top: their own L1 coherence and a bus-backlog probe.
type tracedSnoopy struct{ tracedShared }

func (l tracedSnoopy) MaintainsL1Coherence() {}
func (l tracedSnoopy) BusBacklog(now memsys.Cycle) memsys.Cycles {
	return l.inner.(memsys.BusBacklogReporter).BusBacklog(now)
}

// tracedCommunicating adds the C-block probe of CMP-NuRAPID.
type tracedCommunicating struct{ tracedSnoopy }

func (l tracedCommunicating) IsCommunication(core int, addr memsys.Addr) bool {
	t := l.t
	if !t.timed(&t.comm) {
		return l.inner.(cmpsim.CommunicationProber).IsCommunication(core, addr)
	}
	start := time.Now() // synccheck:nondet host timing for the benchmark report; never reaches results
	c := l.inner.(cmpsim.CommunicationProber).IsCommunication(core, addr)
	t.comm.add(time.Since(start)) // synccheck:nondet host timing for the benchmark report; never reaches results
	return c
}

// Optional L2 interfaces cmpsim looks for, as bits of a set.
const (
	optCommunication = 1 << iota
	optL1Coherent
	optL1Invalidator
	optLineState
	optBusBacklog
)

// optionalSet reports which optional L2 interfaces v implements.
func optionalSet(v any) int {
	set := 0
	if _, ok := v.(cmpsim.CommunicationProber); ok {
		set |= optCommunication
	}
	if _, ok := v.(memsys.L1Coherent); ok {
		set |= optL1Coherent
	}
	if _, ok := v.(memsys.L1Invalidator); ok {
		set |= optL1Invalidator
	}
	if _, ok := v.(memsys.LineStateProber); ok {
		set |= optLineState
	}
	if _, ok := v.(memsys.BusBacklogReporter); ok {
		set |= optBusBacklog
	}
	return set
}

// wrapL2 wraps d in the traced type whose optional interfaces are
// exactly d's, or fails if no traced type has d's set.
func (t *cellTrace) wrapL2(d memsys.L2) (memsys.L2, error) {
	base := &tracedL2{inner: d, t: t}
	shared := tracedShared{base}
	snoopy := tracedSnoopy{shared}
	for _, w := range []memsys.L2{base, shared, snoopy, tracedCommunicating{snoopy}} {
		if optionalSet(w) == optionalSet(d) {
			return w, nil
		}
	}
	return nil, fmt.Errorf("no traced wrapper for %s's optional interface set %05b", d.Name(), optionalSet(d))
}

// calibration is the measured cost of tracing itself.
type calibration struct {
	// callNs is what one wrapped call costs its caller beyond the
	// call itself, averaged over timed and untimed calls.
	callNs float64
	// biasNs is what timing a call adds to that call's own span: the
	// clock reads inside the span.
	biasNs float64
}

// nopWorkload is the empty callee the calibration wraps.
type nopWorkload struct{}

func (nopWorkload) Next(int) cmpsim.Op { return cmpsim.Op{} }
func (nopWorkload) Name() string       { return "nop" }

// calibrationTarget is a variable so the compiler cannot see the
// dynamic type and devirtualise the direct calls.
var calibrationTarget cmpsim.Workload = nopWorkload{}

var calibrationSink cmpsim.Op

// calibrate measures an empty span: the same wrapper the cells use,
// around a callee that does nothing, against calling it directly.
// Medians over several repetitions damp scheduler noise.
func calibrate() calibration {
	const calls = 1 << 21
	var direct, wrapped, bias []float64
	for rep := 0; rep < 7; rep++ {
		target := calibrationTarget
		start := time.Now()
		for i := 0; i < calls; i++ {
			calibrationSink = target.Next(i & 3)
		}
		d := float64(time.Since(start)) / calls

		tr := newCellTrace("")
		w := tr.wrapWorkload(target)
		start = time.Now()
		for i := 0; i < calls; i++ {
			calibrationSink = w.Next(i & 3)
		}
		direct = append(direct, d)
		wrapped = append(wrapped, float64(time.Since(start))/calls)
		bias = append(bias, float64(tr.next.ns)/float64(tr.next.sampled)-d)
	}
	return calibration{callNs: median(wrapped) - median(direct), biasNs: median(bias)}
}

// estimate is a span's host time corrected for timer bias: the mean
// of the timed calls, less the clock reads inside each, times the
// exact call count.
func (c calibration) estimate(s span) time.Duration {
	if s.sampled == 0 {
		return 0
	}
	mean := float64(s.ns)/float64(s.sampled) - c.biasNs
	if mean < 0 {
		mean = 0
	}
	return time.Duration(mean * float64(s.calls))
}

// overhead is what s's wrappers cost the code calling them.
func (c calibration) overhead(s span) time.Duration {
	return time.Duration(c.callNs * float64(s.calls))
}
