package memsys

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"cmpnurapid/internal/stats"
)

func TestBlockAddr(t *testing.T) {
	cases := []struct {
		addr  Addr
		block Bytes
		want  Addr
	}{
		{0, 128, 0},
		{127, 128, 0},
		{128, 128, 128},
		{1000, 128, 896},
		{1000, 64, 960},
	}
	for _, c := range cases {
		if got := c.addr.BlockAddr(c.block); got != c.want {
			t.Errorf("%d.BlockAddr(%d) = %d, want %d", c.addr, c.block, got, c.want)
		}
	}
}

func TestBlockAddrProperties(t *testing.T) {
	// Properties: result is block-aligned, idempotent, and never
	// exceeds the input.
	f := func(a uint64) bool {
		addr := Addr(a)
		b := addr.BlockAddr(128)
		return uint64(b)%128 == 0 && b.BlockAddr(128) == b && b <= addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCategoryString(t *testing.T) {
	cases := map[Category]string{
		Hit: "hit", ROSMiss: "ROS miss", RWSMiss: "RWS miss",
		CapacityMiss: "capacity miss", Category(99): "unknown",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
}

func TestRecordAccessCategories(t *testing.T) {
	s := NewL2Stats()
	s.RecordAccess(Result{Category: Hit, DGroup: 0, ClosestDGroup: true})
	s.RecordAccess(Result{Category: Hit, DGroup: 2, ClosestDGroup: false})
	s.RecordAccess(Result{Category: ROSMiss, DGroup: -1})
	s.RecordAccess(Result{Category: RWSMiss, DGroup: -1})
	s.RecordAccess(Result{Category: CapacityMiss, DGroup: -1})

	if got := s.Accesses.Count(LabelHit); got != 2 {
		t.Errorf("hits = %d, want 2", got)
	}
	for _, l := range []string{LabelROS, LabelRWS, LabelCapacity} {
		if got := s.Accesses.Count(l); got != 1 {
			t.Errorf("%s = %d, want 1", l, got)
		}
	}
	if got := s.DataArray.Count(LabelClosest); got != 1 {
		t.Errorf("closest = %d, want 1", got)
	}
	if got := s.DataArray.Count(LabelFarther); got != 1 {
		t.Errorf("farther = %d, want 1", got)
	}
	if got := s.DataArray.Count(LabelMiss); got != 3 {
		t.Errorf("data misses = %d, want 3", got)
	}
}

func TestRecordAccessNoDGroupCountsClosest(t *testing.T) {
	s := NewL2Stats()
	s.RecordAccess(Result{Category: Hit, DGroup: -1})
	if got := s.DataArray.Count(LabelClosest); got != 1 {
		t.Errorf("d-group-less hit should count as closest, got %d", got)
	}
}

func TestMissRate(t *testing.T) {
	s := NewL2Stats()
	if s.MissRate() != 0 {
		t.Error("empty stats should have 0 miss rate")
	}
	for i := 0; i < 9; i++ {
		s.RecordAccess(Result{Category: Hit, DGroup: -1})
	}
	s.RecordAccess(Result{Category: CapacityMiss, DGroup: -1})
	if got := s.MissRate(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("MissRate = %v, want 0.1", got)
	}
}

// TestRecordAccessDataArrayLabels pins the Figure 9 data-array
// breakdown: a d-grouped hit (DGroup >= 0, including d-group 0)
// classifies by ClosestDGroup; designs without d-groups (DGroup < 0)
// count every hit as closest.
func TestRecordAccessDataArrayLabels(t *testing.T) {
	s := NewL2Stats()
	s.RecordAccess(Result{Category: Hit, DGroup: 0, ClosestDGroup: true})
	s.RecordAccess(Result{Category: Hit, DGroup: 2, ClosestDGroup: true})
	s.RecordAccess(Result{Category: Hit, DGroup: 0, ClosestDGroup: false})
	s.RecordAccess(Result{Category: Hit, DGroup: -1})
	if got := s.DataArray.Count(LabelClosest); got != 3 {
		t.Errorf("closest hits = %d, want 3", got)
	}
	if got := s.DataArray.Count(LabelFarther); got != 1 {
		t.Errorf("farther hits = %d, want 1 (d-group 0 is a real d-group)", got)
	}
}

// TestResetZeroesEveryField sets every L2Stats field to a non-zero
// value by reflection, resets, and requires every field to read zero
// again, so a field added to L2Stats cannot escape the warm-up reset.
// The distributions must survive as the same (emptied) objects.
func TestResetZeroesEveryField(t *testing.T) {
	s := NewL2Stats()
	v := reflect.ValueOf(s).Elem()
	dists := map[string]*stats.Dist{}
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch x := f.Addr().Interface().(type) {
		case **stats.Dist:
			(*x).Inc((*x).Labels()[0])
			dists[name] = *x
		case *stats.ReuseHist:
			x.Record(1)
		default:
			switch f.Kind() {
			case reflect.Uint64:
				f.SetUint(7)
			case reflect.Int64:
				f.SetInt(7)
			default:
				t.Fatalf("field %s has type %s, which this test cannot fill", name, f.Type())
			}
		}
		if f.IsZero() || (dists[name] != nil && dists[name].Total() == 0) {
			t.Fatalf("field %s still zero after filling", name)
		}
	}
	if s.BusWait == 0 {
		t.Fatal("BusWait was not filled")
	}

	s.Reset()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		if d, ok := dists[name]; ok {
			if got := f.Interface().(*stats.Dist); got != d || got.Total() != 0 {
				t.Errorf("Reset: %s not the same emptied distribution (total %d)", name, got.Total())
			}
			continue
		}
		if !f.IsZero() {
			t.Errorf("Reset left %s = %v", name, f)
		}
	}
}

// TestRecordLifetimeByBringer: Figure 7's rule. An entry an ROS miss
// brought in lands in ReuseROS, an RWS-brought one in ReuseRWS, and
// capacity-miss entries in neither.
func TestRecordLifetimeByBringer(t *testing.T) {
	s := NewL2Stats()
	s.RecordLifetime(ROSMiss, 0)
	s.RecordLifetime(RWSMiss, 3)
	s.RecordLifetime(RWSMiss, 9)
	s.RecordLifetime(CapacityMiss, 1)
	if s.ReuseROS.Total() != 1 || s.ReuseROS.Count(stats.Reuse0) != 1 {
		t.Errorf("ReuseROS = %d lifetimes, %d with 0 reuses; want 1, 1",
			s.ReuseROS.Total(), s.ReuseROS.Count(stats.Reuse0))
	}
	if s.ReuseRWS.Total() != 2 || s.ReuseRWS.Count(stats.Reuse2to5) != 1 || s.ReuseRWS.Count(stats.ReuseOver5) != 1 {
		t.Errorf("ReuseRWS buckets wrong: %d total", s.ReuseRWS.Total())
	}
}
