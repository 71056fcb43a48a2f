// Package cmpnurapid is a from-scratch reproduction of "Optimizing
// Replication, Communication, and Capacity Allocation in CMPs"
// (Chishti, Powell, Vijaykumar — ISCA 2005): the CMP-NuRAPID hybrid
// cache with private per-core tag arrays and a shared
// distance-associative data array, its controlled-replication,
// in-situ-communication, and capacity-stealing optimizations, the four
// baseline cache organizations the paper compares against, a
// cycle-approximate 4-core CMP simulator to run them in, and synthetic
// workloads calibrated to the paper's workload characterization.
//
// # Quick start
//
//	w := cmpnurapid.OLTP(42)                      // a workload
//	sys := cmpnurapid.NewSystem(cmpnurapid.CMPNuRAPID, w)
//	sys.Warmup(1_000_000)                         // fill the caches
//	res := sys.Run(1_000_000)                     // measure
//	fmt.Println(res.IPC, res.L2.MissRate())
//
// Compare designs by running the same workload seed on each (every
// design sees an identical per-core reference stream) and dividing
// with Speedup.
//
// The internal packages carry the substance: internal/core is
// CMP-NuRAPID itself, internal/l2 the baselines, internal/coherence
// the MESI/MESIC protocols, internal/cmpsim the system model,
// internal/experiments the regeneration of every table and figure in
// the paper's evaluation. This package is the stable facade.
package cmpnurapid

import (
	"io"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/core"
	"cmpnurapid/internal/experiments"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/topo"
	"cmpnurapid/internal/trace"
	"cmpnurapid/internal/workload"
)

// Design names one of the evaluated cache organizations.
type Design = experiments.DesignName

// The five designs of the paper's evaluation, plus the CR-only and
// ISC-only variants used by Figure 8.
const (
	UniformShared     = experiments.UniformShared
	NonUniformShared  = experiments.NonUniform
	Private           = experiments.Private
	Ideal             = experiments.Ideal
	CMPNuRAPID        = experiments.NuRAPID
	CMPNuRAPIDCROnly  = experiments.NuRAPIDCR
	CMPNuRAPIDISCOnly = experiments.NuRAPIDISC
)

// L2 is the interface all cache designs implement.
type L2 = memsys.L2

// Addr is a physical byte address.
type Addr = memsys.Addr

// Cycle is an absolute simulated timestamp; Cycles is a duration in
// clock cycles; Bytes is a storage capacity. All simulator timing and
// geometry flows through these dimensional types (see DESIGN.md).
type (
	Cycle  = memsys.Cycle
	Cycles = memsys.Cycles
	Bytes  = memsys.Bytes
)

// Result describes one L2 access outcome (latency, the paper's miss
// taxonomy, and which d-group served a hit).
type Result = memsys.Result

// NewL2 constructs a fresh instance of the named design at the paper's
// 8 MB, 4-core configuration (Table 1 latencies).
func NewL2(d Design) L2 { return experiments.NewDesign(d) }

// NuRAPIDConfig exposes CMP-NuRAPID's full configuration for custom
// instantiations (ablation switches, different geometries, seeds).
type NuRAPIDConfig = core.Config

// DefaultNuRAPIDConfig returns the paper's configuration: doubled tag
// arrays, four 2 MB d-groups, CR + ISC + fastest-promotion CS.
func DefaultNuRAPIDConfig() NuRAPIDConfig { return core.DefaultConfig() }

// NuRAPIDCache is the concrete CMP-NuRAPID type, exposing the
// inspection surface (StateOf, Occupancy, CheckInvariants) used
// by tests and the protocol-walkthrough example.
type NuRAPIDCache = core.Cache

// NewCMPNuRAPID builds a CMP-NuRAPID cache from an explicit config.
func NewCMPNuRAPID(cfg NuRAPIDConfig) *NuRAPIDCache { return core.New(cfg) }

// Workload supplies per-core instruction streams to a System.
type Workload = cmpsim.Workload

// Op is one unit of work in a workload stream.
type Op = cmpsim.Op

// Profile parameterizes a synthetic multithreaded workload.
type Profile = workload.Profile

// The paper's multithreaded workloads (§4.3, Table 3), calibrated to
// its workload characterization. The seed selects the random streams;
// equal seeds give bit-identical per-core streams.
func OLTP(seed uint64) Workload    { return workload.New(workload.OLTP(seed)) }
func Apache(seed uint64) Workload  { return workload.New(workload.Apache(seed)) }
func SPECjbb(seed uint64) Workload { return workload.New(workload.SPECjbb(seed)) }
func Ocean(seed uint64) Workload   { return workload.New(workload.Ocean(seed)) }
func Barnes(seed uint64) Workload  { return workload.New(workload.Barnes(seed)) }

// NewWorkload builds a generator from a custom profile.
func NewWorkload(p Profile) Workload { return workload.New(p) }

// Mixes returns the paper's four multiprogrammed SPEC2K mixes
// (Table 2) as runnable workloads.
func Mixes(seed uint64) []Workload {
	ms := workload.Mixes(seed)
	ws := make([]Workload, len(ms))
	for i, m := range ms {
		ws[i] = m
	}
	return ws
}

// System couples four cores with L1 caches, an L2 design, and a
// workload.
type System = cmpsim.System

// Results reports a run's outcome.
type Results = cmpsim.Results

// NewSystem builds the paper's 4-core system (64 KB 2-way split L1 I/D,
// 3 cycles) around the named design.
func NewSystem(d Design, w Workload) *System {
	return cmpsim.New(cmpsim.DefaultConfig(), NewL2(d), w)
}

// NewSystemWith builds a system around an explicit L2 instance.
func NewSystemWith(l2 L2, w Workload) *System {
	return cmpsim.New(cmpsim.DefaultConfig(), l2, w)
}

// Speedup returns r's weighted speedup over base.
func Speedup(r, base Results) float64 { return cmpsim.Speedup(r, base) }

// Latencies holds the Table 1 cycle counts derived from the cacti
// timing model and the Figure 1 floorplan.
type Latencies = topo.Latencies

// DeriveLatencies recomputes Table 1 from geometry.
func DeriveLatencies() Latencies { return topo.Derive() }

// NumCores is the fixed core (and d-group) count of the floorplan.
const NumCores = topo.NumCores

// RecordTrace captures opsPerCore ops per core from w into out in the
// binary trace format.
func RecordTrace(out io.Writer, w Workload, opsPerCore int) error {
	return trace.Record(out, w, opsPerCore)
}

// LoadTrace loads a recorded trace as a replayable workload.
func LoadTrace(r io.Reader, name string) (Workload, error) {
	return trace.Load(r, name)
}
