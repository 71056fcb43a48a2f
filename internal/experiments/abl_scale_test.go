package experiments

import (
	"encoding/csv"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cmpnurapid/internal/cmpsim"
	"cmpnurapid/internal/memsys"
	"cmpnurapid/internal/workload"
)

// sharedEval is one Eval per distinct RunConfig of this file's tests.
// The first test to need it simulates the union of the cells its
// tests read in one parallel pass, so a cell two tests share is
// simulated once.
type sharedEval struct {
	rc       RunConfig
	cells    func(e *Eval) []Cell
	once     sync.Once
	e        *Eval
	failures []CellFailure
}

func (s *sharedEval) get(t *testing.T) *Eval {
	t.Helper()
	s.once.Do(func() {
		s.e = NewEval(s.rc)
		plan := Plan([]Experiment{{Name: "shared", Cells: s.cells}}, s.e)
		s.failures = ExecuteCells(plan, DefaultParallelism(), false, nil)
	})
	for _, f := range s.failures {
		t.Fatalf("cell %s failed: %v", f.Key, f.Value)
	}
	return s.e
}

// ablationRC is the smallest scale at which the ablation effects are
// measurable: the tag arrays and d-groups must actually fill before
// tag capacity or promotion policy can matter.
func ablationRC() RunConfig {
	return RunConfig{WarmupInstr: 3_000_000, Instructions: 1_500_000, Seed: 42}
}

// ablationEval serves the promotion (MIX3) and tag-capacity (OLTP)
// ablations.
var ablationEval = &sharedEval{rc: ablationRC(), cells: func(e *Eval) []Cell {
	return append(e.cells([]input{e.mpInput(2)}, ablPromotion.configs()...),
		e.cells([]input{e.mtInput(workload.OLTP(42))}, ablTags.configs()...)...)
}}

// sensEval serves the 2M+1M seed-42 tests: the 8 MB size point and the
// SNUCA/DNUCA comparison on OLTP, and CMP-NuRAPID on MIX1.
var sensEval = &sharedEval{
	rc: RunConfig{WarmupInstr: 2_000_000, Instructions: 1_000_000, Seed: 42},
	cells: func(e *Eval) []Cell {
		oltp := []input{e.mtInput(workload.OLTP(42))}
		return append(append(e.cells(oltp, sizePoint(8).configs()...),
			e.cells(oltp, designs(UniformShared, NonUniform, DNUCA)...)...),
			e.cells([]input{e.mpInput(0)}, design(NuRAPID))...)
	},
}

// TestAblationPromotionOrdering checks §3.3.1: in CMPs the fastest
// promotion policy beats next-fastest (which beats no promotion),
// because promoting through intermediate d-groups pollutes other
// cores' fastest d-groups. Measured on MIX3 (mcf driving heavy
// capacity stealing).
func TestAblationPromotionOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation-scale simulation skipped in -short mode")
	}
	e := ablationEval.get(t)
	sp := ablPromotion.speedups(e, e.mpInput(2))
	fastest, next := sp[0], sp[1]
	if fastest <= 1.0 {
		t.Errorf("fastest promotion speedup %.4f not above no-promotion", fastest)
	}
	if fastest < next {
		t.Errorf("fastest (%.4f) below next-fastest (%.4f); paper found the opposite", fastest, next)
	}
}

// TestAblationTagCapacity checks §2.2.2: doubling each core's tag
// capacity performs almost as well as quadrupling (within 1%), while
// halving it back to 1x visibly trails.
func TestAblationTagCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation-scale simulation skipped in -short mode")
	}
	e := ablationEval.get(t)
	s := ablTags.speedups(e, e.mtInput(workload.OLTP(42)))
	x1, x2, x4 := s[0], s[1], s[2]
	if x2 < x4*0.99 {
		t.Errorf("2x tags (%.4f) not within 1%% of 4x (%.4f); paper: 'almost as well'", x2, x4)
	}
	if x1 > x2*0.98 {
		t.Errorf("1x tags (%.4f) suspiciously close to 2x (%.4f); extra tag space should matter", x1, x2)
	}
}

// TestSizeSensitivityShape checks the capacity sweep is well-formed
// and that CMP-NuRAPID beats the same-size uniform-shared cache at
// the paper's 8 MB point.
func TestSizeSensitivityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity simulation skipped in -short mode")
	}
	e := sensEval.get(t)
	sp := sizePoint(8).speedups(e, e.mtInput(workload.OLTP(e.RC.Seed)))
	priv, nur := sp[0], sp[1]
	if nur <= 1 || nur <= priv*0.95 {
		t.Errorf("8 MB point broken: private %.3f, NuRAPID %.3f", priv, nur)
	}
}

// TestSeedOrderingStable checks the Figure 10 ordering holds across
// seeds (the reproduction's analogue of the paper's variability runs).
func TestSeedOrderingStable(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity simulation skipped in -short mode")
	}
	e := seedEval.get(t)
	for _, seed := range orderingSeeds {
		sub := e.subEval(seed)
		if nur, priv := sub.Speedup(NuRAPID), sub.Speedup(Private); !(nur > priv && priv > 1) {
			t.Error("CMP-NuRAPID > private > uniform-shared ordering unstable across seeds")
			break
		}
	}
}

// orderingSeeds are the seeds TestSeedOrderingStable checks.
var orderingSeeds = []uint64{7, 1234, 999999}

// seedEval serves TestSeedOrderingStable: each seed's commercial rows
// on the designs its speedups read. Another seed's cells are keyed
// under its seed, as the sens-seed experiment keys them.
var seedEval = &sharedEval{
	rc: RunConfig{WarmupInstr: 1_500_000, Instructions: 700_000, Seed: 0},
	cells: func(e *Eval) []Cell {
		var cells []Cell
		for _, seed := range orderingSeeds {
			sub := e.subEval(seed)
			for _, c := range sub.cells(sub.inputs(commercialRows), designs(UniformShared, Private, NuRAPID)...) {
				c.Key = fmt.Sprintf("seed/%d/%s", seed, c.Key)
				cells = append(cells, c)
			}
		}
		return cells
	},
}

// updateEval serves TestUpdateProtocolTradeoffs.
var updateEval = &sharedEval{
	rc: RunConfig{WarmupInstr: 2_500_000, Instructions: 1_200_000, Seed: 42},
	cells: func(e *Eval) []Cell {
		return e.cells([]input{e.mtInput(workload.OLTP(42))}, ablUpdate.configs()...)
	},
}

// TestUpdateProtocolTradeoffs checks §3.2's argument end to end on
// OLTP: the update protocol and ISC both beat invalidate-based private
// caches on RWS-heavy sharing, but CMP-NuRAPID (ISC) beats the update
// protocol, which pays a bus broadcast per shared write and a copy per
// sharer.
func TestUpdateProtocolTradeoffs(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation-scale simulation skipped in -short mode")
	}
	e := updateEval.get(t)
	sp := ablUpdate.speedups(e, e.mtInput(workload.OLTP(e.RC.Seed)))
	inv, upd, isc := sp[0], sp[1], sp[2]
	if isc <= upd {
		t.Errorf("ISC (%.3f) not above update protocol (%.3f); §3.2's argument should hold", isc, upd)
	}
	if inv <= 1 || upd <= 1 {
		t.Errorf("degenerate: invalidate %.3f update %.3f", inv, upd)
	}
}

// TestDNUCALosesToSNUCA reproduces [6]'s negative result the paper
// relies on ("[6] shows realistic CMP-DNUCA to perform worse than
// CMP-SNUCA"): under heavy sharing, migration's incremental search and
// block tug-of-war cost more than static placement saves.
func TestDNUCALosesToSNUCA(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation-scale simulation skipped in -short mode")
	}
	e := sensEval.get(t)
	p := workload.OLTP(e.RC.Seed)
	base := e.MT(UniformShared, p)
	snuca := cmpsim.Speedup(e.MT(NonUniform, p), base)
	dnuca := cmpsim.Speedup(e.MT(DNUCA, p), base)
	if dnuca >= snuca {
		t.Errorf("CMP-DNUCA (%.3f) not below CMP-SNUCA (%.3f); [6]'s result should reproduce", dnuca, snuca)
	}
}

// TestDemotionBandwidthClaim checks §3.3.2: "the demotions are not
// frequent enough to cause a bandwidth problem" — a handful per
// thousand instructions, not per ten.
func TestDemotionBandwidthClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation-scale simulation skipped in -short mode")
	}
	// MIX1's non-uniform demand drives capacity stealing; multithreaded
	// workloads replace frame-for-frame in the closest d-group and
	// rarely demote at all.
	r := sensEval.get(t).MP(NuRAPID, 0)
	rate := 1000 * float64(r.L2.Demotions) / float64(r.Instructions)
	if rate > 50 {
		t.Errorf("demotion rate %.2f per 1000 instructions contradicts the bandwidth claim", rate)
	}
	if rate == 0 {
		t.Error("no demotions at all; capacity stealing inactive")
	}
}

func TestBandwidthReportRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	rc := RunConfig{WarmupInstr: 100_000, Instructions: 100_000, Seed: 1}
	s := NewEval(rc).BandwidthReport().String()
	if len(s) < 100 {
		t.Errorf("bandwidth report suspicious:\n%s", s)
	}
}

// TestBandwidthReportReadsMeasurementWindow: the bandwidth report's
// bus columns must equal what each cell's own Results say: issued
// transactions (BusRd, BusRdX, BusUpg, BusRepl; flushes and pointer
// returns answer them and take no slot) per 1 000 instructions, and
// the window's arbitration wait. Warm-up traffic must not leak in, and
// the report must read the standard mt/ and mp/ cells.
func TestBandwidthReportReadsMeasurementWindow(t *testing.T) {
	e := NewEval(RunConfig{WarmupInstr: 50_000, Instructions: 50_000, Seed: 42})
	var keys []string
	for _, c := range e.bandwidthCells() {
		keys = append(keys, c.Key)
	}
	wantKeys := []string{"mt/private/oltp", "mt/CMP-NuRAPID/oltp", "mp/private/MIX1", "mp/CMP-NuRAPID/MIX1"}
	if strings.Join(keys, " ") != strings.Join(wantKeys, " ") {
		t.Errorf("bandwidth plans %v, want %v", keys, wantKeys)
	}

	rows, err := csv.NewReader(strings.NewReader(e.BandwidthReport().CSV())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	results := map[string]cmpsim.Results{
		"oltp/private":     e.MT(Private, workload.OLTP(42)),
		"oltp/CMP-NuRAPID": e.MT(NuRAPID, workload.OLTP(42)),
		"MIX1/private":     e.MP(Private, 0),
		"MIX1/CMP-NuRAPID": e.MP(NuRAPID, 0),
	}
	if len(rows) != 1+len(results) {
		t.Fatalf("report has %d rows, want a header and %d", len(rows), len(results))
	}
	for _, row := range rows[1:] {
		r, ok := results[row[0]+"/"+row[1]]
		if !ok {
			t.Fatalf("unexpected row %v", row)
		}
		var issued uint64
		for _, l := range []string{memsys.LabelBusRd, memsys.LabelBusRdX, memsys.LabelBusUpg, memsys.LabelBusRepl} {
			issued += r.L2.BusTransactions.Count(l)
		}
		if want := fmt.Sprintf("%.2f", 1000*float64(issued)/float64(r.Instructions)); row[2] != want {
			t.Errorf("%s/%s: Bus txns %s, want %s from the window's L2Stats", row[0], row[1], row[2], want)
		}
		if want := fmt.Sprint(r.L2.BusWait); row[3] != want {
			t.Errorf("%s/%s: Bus wait cyc %s, want %s from the window's L2Stats", row[0], row[1], row[3], want)
		}
	}
}

// TestCapacityReportShowsStealing checks the §3.3 allocation story on
// MIX3 directly: the cache-hungry app (mcf, core 1) must hold frames
// outside its own d-group, while the small apps (gzip, mesa) stay home.
func TestCapacityReportShowsStealing(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation-scale simulation skipped in -short mode")
	}
	rc := RunConfig{WarmupInstr: 2_000_000, Instructions: 500_000, Seed: 42}
	s := NewEval(rc).CapacityReport(2).String()
	if len(s) < 100 {
		t.Fatalf("capacity report suspicious:\n%s", s)
	}
	if !containsAll(s, "mcf", "gzip", "mesa", "apsi") {
		t.Errorf("capacity report missing apps:\n%s", s)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, x := range subs {
		if !strings.Contains(s, x) {
			return false
		}
	}
	return true
}
