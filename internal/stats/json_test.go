package stats

import (
	"encoding/json"
	"testing"
)

// TestDistJSONRoundTrip: a decoded Dist must be indistinguishable from
// the original — same label order, counts, fractions, and rendering.
func TestDistJSONRoundTrip(t *testing.T) {
	d := NewDist("hit", "ros", "rws", "capacity")
	d.Add("hit", 12345)
	d.Add("rws", 7)
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var got Dist
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != d.String() {
		t.Errorf("round trip changed rendering:\n%s\nvs\n%s", got.String(), d.String())
	}
	if got.Count("hit") != 12345 || got.Count("ros") != 0 {
		t.Errorf("counts lost: %v", got.counts)
	}
	// The rebuilt index must be live: Add on a decoded dist works.
	got.Inc("ros")
	if got.Count("ros") != 1 {
		t.Error("decoded dist has a dead label index")
	}
}

// TestDistJSONRejectsMismatchedCounts: a corrupt wire value (label and
// count arrays of different lengths) must error, not half-decode.
func TestDistJSONRejectsMismatchedCounts(t *testing.T) {
	var d Dist
	if err := json.Unmarshal([]byte(`{"labels":["a","b"],"counts":[1]}`), &d); err == nil {
		t.Error("mismatched labels/counts decoded without error")
	}
}

// TestReuseHistJSONRoundTrip pins exact bucket counts through JSON.
func TestReuseHistJSONRoundTrip(t *testing.T) {
	var h ReuseHist
	h.Record(0)
	h.Record(1)
	h.Record(1)
	h.Record(100)
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var got ReuseHist
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip changed histogram: %v vs %v", got, h)
	}
	if err := json.Unmarshal([]byte(`[1,2]`), &got); err == nil {
		t.Error("short bucket array decoded without error")
	}
}

// TestTableJSONRoundTrip: a decoded table renders byte-identically.
func TestTableJSONRoundTrip(t *testing.T) {
	tb := NewTable("Capacity allocation", "Core", "Tags", "Blocks")
	tb.Row("P0 (mcf)", "123", "456")
	tb.Rowf("d-groups", "a=%d b=%d", 1, 2)
	data, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var got Table
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != tb.String() {
		t.Errorf("round trip changed rendering:\n%s\nvs\n%s", got.String(), tb.String())
	}
	if got.CSV() != tb.CSV() {
		t.Error("round trip changed CSV rendering")
	}
}
