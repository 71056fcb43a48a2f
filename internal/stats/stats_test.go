package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDistBasics(t *testing.T) {
	d := NewDist("hit", "miss")
	d.Inc("hit")
	d.Add("miss", 3)
	if got := d.Count("hit"); got != 1 {
		t.Errorf("Count(hit) = %d, want 1", got)
	}
	if got := d.Count("miss"); got != 3 {
		t.Errorf("Count(miss) = %d, want 3", got)
	}
	if got := d.Total(); got != 4 {
		t.Errorf("Total = %d, want 4", got)
	}
	if got := d.Frac("miss"); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Frac(miss) = %v, want 0.75", got)
	}
}

func TestDistEmptyFrac(t *testing.T) {
	d := NewDist("a")
	if got := d.Frac("a"); got != 0 {
		t.Errorf("Frac on empty dist = %v, want 0", got)
	}
}

func TestDistUnknownLabelPanics(t *testing.T) {
	d := NewDist("a")
	defer func() {
		if recover() == nil {
			t.Fatal("Inc on unknown label did not panic")
		}
	}()
	d.Inc("b")
}

func TestDistDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDist with duplicate labels did not panic")
		}
	}()
	NewDist("a", "a")
}

func TestDistReset(t *testing.T) {
	d := NewDist("a", "b")
	d.Add("a", 5)
	d.Reset()
	if d.Total() != 0 {
		t.Errorf("Total after Reset = %d, want 0", d.Total())
	}
}

func TestDistLabelsOrder(t *testing.T) {
	d := NewDist("hits", "ros", "rws", "capacity")
	got := d.Labels()
	want := []string{"hits", "ros", "rws", "capacity"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Labels()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestDistString(t *testing.T) {
	d := NewDist("hit", "miss")
	d.Add("hit", 3)
	d.Add("miss", 1)
	s := d.String()
	if !strings.Contains(s, "hit") || !strings.Contains(s, "75.00%") {
		t.Errorf("String() missing expected content:\n%s", s)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		reuses int
		want   ReuseBucket
	}{
		{-1, Reuse0}, {0, Reuse0}, {1, Reuse1}, {2, Reuse2to5},
		{3, Reuse2to5}, {5, Reuse2to5}, {6, ReuseOver5}, {100, ReuseOver5},
	}
	for _, c := range cases {
		if got := BucketOf(c.reuses); got != c.want {
			t.Errorf("BucketOf(%d) = %v, want %v", c.reuses, got, c.want)
		}
	}
}

func TestBucketOfProperty(t *testing.T) {
	// Property: every int maps to exactly one of the four buckets and
	// the mapping is monotone in the bucket boundaries.
	f := func(n int) bool {
		b := BucketOf(n)
		return b >= Reuse0 && b < numReuseBuckets
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReuseHist(t *testing.T) {
	var h ReuseHist
	for _, r := range []int{0, 0, 1, 3, 10} {
		h.Record(r)
	}
	if h.Total() != 5 {
		t.Fatalf("Total = %d, want 5", h.Total())
	}
	if h.Count(Reuse0) != 2 || h.Count(Reuse1) != 1 ||
		h.Count(Reuse2to5) != 1 || h.Count(ReuseOver5) != 1 {
		t.Errorf("bucket counts wrong: %v", h.counts)
	}
	f := h.Fracs()
	sum := f[0] + f[1] + f[2] + f[3]
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
}

func TestReuseHistEmpty(t *testing.T) {
	var h ReuseHist
	if h.Frac(Reuse0) != 0 {
		t.Error("Frac on empty hist should be 0")
	}
}

func TestReuseBucketString(t *testing.T) {
	if Reuse2to5.String() != "2-5 reuses" {
		t.Errorf("Reuse2to5.String() = %q", Reuse2to5.String())
	}
	if ReuseBucket(42).String() != "ReuseBucket(42)" {
		t.Errorf("unknown bucket String() = %q", ReuseBucket(42).String())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Latencies", "Component", "Cycles")
	tb.Row("Tag", "26")
	tb.Row("Data", "33")
	tb.Rowf("Total", "%d", 59)
	s := tb.String()
	for _, want := range []string{"Latencies", "Component", "Tag", "26", "59"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	if n := strings.Count(tb.CSV(), "\n"); n != 4 {
		t.Errorf("%d rows, want 4", n)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "a", "bbbb")
	tb.Row("cccccc", "d")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	// header, separator, one row
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), tb.String())
	}
	// Column 2 should start at the same offset in header and data row.
	h, r := lines[0], lines[2]
	if strings.Index(h, "bbbb") != strings.Index(r, "d") {
		t.Errorf("columns not aligned:\n%s", tb.String())
	}
}

func TestStackedBar(t *testing.T) {
	bar := StackedBar([]float64{0.5, 0.25, 0.25}, 8, []rune{'#', '=', '.'})
	if bar != "####==.." {
		t.Errorf("StackedBar = %q, want ####==..", bar)
	}
	if got := len([]rune(StackedBar([]float64{0.3, 0.3, 0.4}, 10, nil))); got != 10 {
		t.Errorf("bar width = %d, want 10", got)
	}
	if got := StackedBar([]float64{0, 0}, 4, nil); got != "    " {
		t.Errorf("all-zero bar = %q, want spaces", got)
	}
	if StackedBar(nil, 5, nil) != "" || StackedBar([]float64{1}, 0, nil) != "" {
		t.Error("degenerate inputs should render empty")
	}
	// Largest remainder: 3 equal thirds of 10 cells -> 4+3+3.
	bar = StackedBar([]float64{1, 1, 1}, 10, []rune{'a', 'b', 'c'})
	if len(bar) != 10 || strings.Count(bar, "a")+strings.Count(bar, "b")+strings.Count(bar, "c") != 10 {
		t.Errorf("thirds bar = %q", bar)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("Title ignored", "a", "b")
	tb.Row("x,with,commas", "1")
	tb.Row("plain", "2")
	got := tb.CSV()
	want := "a,b\n\"x,with,commas\",1\nplain,2\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
	if strings.Contains(got, "Title") {
		t.Error("CSV must omit the title")
	}
}

func TestPctRel(t *testing.T) {
	if got := Pct(0.132); got != "13.2%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Rel(1.13); got != "1.130x" {
		t.Errorf("Rel = %q", got)
	}
}

// TestReusesSaturates: the counter stops at 255 instead of wrapping,
// and every count from 6 up lands in the same bucket.
func TestReusesSaturates(t *testing.T) {
	var r Reuses
	for i := 0; i < 300; i++ {
		r.Inc()
		if want := min(i+1, 255); int(r) != want {
			t.Fatalf("after %d increments r = %d, want %d", i+1, r, want)
		}
	}
	if BucketOf(int(r)) != BucketOf(300) {
		t.Errorf("saturated count buckets as %v, 300 as %v", BucketOf(int(r)), BucketOf(300))
	}
}
