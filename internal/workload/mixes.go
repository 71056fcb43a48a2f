package workload

import (
	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/rng"
	"cmpnurapid/internal/topo"
)

// App characterizes one SPEC CPU2000 application for the
// multiprogrammed mixes: its cache footprint (in 128 B blocks), Zipf
// locality exponent, compute density, and store fraction. Values
// follow the applications' well-known memory behaviour: art/mcf/swim
// are cache-hungry with poor locality; mesa/gzip/wupwise have small,
// hot working sets — exactly the non-uniform capacity demand capacity
// stealing exploits (§3.3).
type App struct {
	Name       string
	Blocks     int
	Theta      float64
	ComputeMin int
	ComputeMax int
	WriteFrac  float64
	// RepeatFrac sets the app's temporal-burst rate, i.e. its L1 hit
	// rate (see Profile.RepeatFrac); the cache-hungry codes have poor
	// L1 behaviour too.
	RepeatFrac float64
}

// The ten SPEC2K applications of Table 2. Footprints and locality
// follow the applications' well-known behaviour, scaled so the
// Figure 11 regime holds: the aggregate demand of every mix exceeds
// the 8 MB shared cache (shared cache ~9% misses), the cache-hungry
// apps overflow a 2 MB private cache badly (private ~14%), and the
// small apps leave private-cache slack for capacity stealing.
var (
	Apsi    = App{Name: "apsi", Blocks: blocksForMB(2.5), Theta: 0.60, ComputeMin: 3, ComputeMax: 7, WriteFrac: 0.30, RepeatFrac: 0.85}
	Art     = App{Name: "art", Blocks: blocksForMB(4.5), Theta: 0.35, ComputeMin: 1, ComputeMax: 4, WriteFrac: 0.20, RepeatFrac: 0.70}
	Equake  = App{Name: "equake", Blocks: blocksForMB(2.2), Theta: 0.55, ComputeMin: 2, ComputeMax: 6, WriteFrac: 0.25, RepeatFrac: 0.85}
	Mesa    = App{Name: "mesa", Blocks: blocksForMB(0.5), Theta: 0.90, ComputeMin: 4, ComputeMax: 9, WriteFrac: 0.30, RepeatFrac: 0.90}
	Ammp    = App{Name: "ammp", Blocks: blocksForMB(4.0), Theta: 0.40, ComputeMin: 2, ComputeMax: 5, WriteFrac: 0.25, RepeatFrac: 0.80}
	Swim    = App{Name: "swim", Blocks: blocksForMB(4.5), Theta: 0.30, ComputeMin: 1, ComputeMax: 4, WriteFrac: 0.35, RepeatFrac: 0.70}
	Vortex  = App{Name: "vortex", Blocks: blocksForMB(1.8), Theta: 0.65, ComputeMin: 3, ComputeMax: 7, WriteFrac: 0.30, RepeatFrac: 0.85}
	Mcf     = App{Name: "mcf", Blocks: blocksForMB(6.5), Theta: 0.30, ComputeMin: 1, ComputeMax: 3, WriteFrac: 0.20, RepeatFrac: 0.70}
	Gzip    = App{Name: "gzip", Blocks: blocksForMB(1.0), Theta: 0.75, ComputeMin: 3, ComputeMax: 8, WriteFrac: 0.30, RepeatFrac: 0.88}
	Wupwise = App{Name: "wupwise", Blocks: blocksForMB(1.2), Theta: 0.80, ComputeMin: 4, ComputeMax: 9, WriteFrac: 0.30, RepeatFrac: 0.88}
)

// Multiprogrammed runs one independent application per core: no
// sharing at all, disjoint address spaces, per-core locality. It
// implements cmpsim.Workload.
type Multiprogrammed struct {
	name  string
	apps  [topo.NumCores]App
	cores [topo.NumCores]mixCore
}

type mixCore struct {
	r *rng.Source
	// zsrc is the Zipf stream's source until the core's first draw
	// builds its table; from then on z samples it and zsrc is nil.
	zsrc *rng.Source
	z    rng.Zipf
	ring burstRing
	// The app's per-op probabilities, converted once.
	repeat, write rng.Chance
}

// NewMix builds a multiprogrammed workload from four applications.
// It builds no Zipf table: each core builds its own on its first draw,
// so a mix that never runs costs only its seeds.
func NewMix(name string, apps [topo.NumCores]App, seed uint64) *Multiprogrammed {
	m := &Multiprogrammed{name: name, apps: apps}
	root := rng.New(seed ^ 0x5bf0_3635)
	for c := 0; c < topo.NumCores; c++ {
		r := root.Split()
		m.cores[c] = mixCore{
			r: r, zsrc: r.Split(),
			repeat: rng.ChanceOf(apps[c].RepeatFrac),
			write:  rng.ChanceOf(apps[c].WriteFrac),
		}
	}
	return m
}

// Name implements cmpsim.Workload.
func (m *Multiprogrammed) Name() string { return m.name }

// Apps returns the per-core applications.
func (m *Multiprogrammed) Apps() [topo.NumCores]App { return m.apps }

// Next implements cmpsim.Workload: one op, drawn by Fill.
//
// hotpath:root
func (m *Multiprogrammed) Next(core int) cmpsim.Op {
	var op [1]cmpsim.Op
	m.Fill(core, op[:])
	return op[0]
}

// Fill writes core's next len(ops) ops, which cmpsim calls to refill a
// core's op buffer. It holds the mix's only copy of the stream logic,
// so any split of a stream into Fill and Next calls draws the same ops.
//
// hotpath:root
func (m *Multiprogrammed) Fill(core int, ops []cmpsim.Op) {
	mc := &m.cores[core]
	app := &m.apps[core]
	// A core builds its Zipf table on its first Fill. The build draws
	// only from zsrc, never from mc.r, so this placement changes no op.
	if mc.zsrc != nil {
		mc.z = rng.NewZipfTable(max1(app.Blocks), app.Theta).Sampler(mc.zsrc)
		mc.zsrc = nil
	}
	base := memsys.Addr(PrivateBase + core*PrivateStep)
	for i := range ops {
		op := &ops[i]
		*op = cmpsim.Op{}
		if app.ComputeMax > app.ComputeMin {
			op.Compute = app.ComputeMin + mc.r.Intn(app.ComputeMax-app.ComputeMin+1)
		} else {
			op.Compute = app.ComputeMin
		}
		// Temporal burst: re-touch a recent reference as a load.
		if mc.ring.n > 0 && mc.r.Hit(mc.repeat) {
			op.Addr = mc.ring.recent(mc.r).Addr
			continue
		}
		op.Addr = base + memsys.Addr(mc.z.Next()*topo.BlockBytes)
		op.Write = mc.r.Hit(mc.write)
		mc.ring.remember(*op)
	}
}

// MixApps returns Table 2's application lists.
func MixApps() map[string][topo.NumCores]App {
	return map[string][topo.NumCores]App{
		"MIX1": {Apsi, Art, Equake, Mesa},
		"MIX2": {Ammp, Swim, Mesa, Vortex},
		"MIX3": {Apsi, Mcf, Gzip, Mesa},
		"MIX4": {Ammp, Gzip, Vortex, Wupwise},
	}
}

// Mixes returns the four Table 2 workloads in order.
func Mixes(seed uint64) []*Multiprogrammed {
	apps := MixApps()
	return []*Multiprogrammed{
		NewMix("MIX1", apps["MIX1"], seed),
		NewMix("MIX2", apps["MIX2"], seed+1),
		NewMix("MIX3", apps["MIX3"], seed+2),
		NewMix("MIX4", apps["MIX4"], seed+3),
	}
}

// ByName returns the multithreaded profile or Table 2 mix called name,
// built at seed, and false when no workload has that name.
func ByName(name string, seed uint64) (cmpsim.Workload, bool) {
	for _, p := range Multithreaded(seed) {
		if p.Name == name {
			return New(p), true
		}
	}
	for _, m := range Mixes(seed) {
		if m.Name() == name {
			return m, true
		}
	}
	return nil, false
}
