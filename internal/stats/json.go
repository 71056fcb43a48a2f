package stats

import (
	"encoding/json"
	"fmt"
)

// JSON round-tripping for the measurement types. Their fields are
// unexported, so without these methods encoding/json would silently
// write an empty object. Every type serializes losslessly: counts are
// integers (exact in JSON), and label order — which is presentation
// order in the figures — is preserved explicitly. A decoded value must
// render byte-identically to the original; the round-trip tests pin
// that.

// distJSON is the wire shape of a Dist: labels in presentation order
// with their parallel counts.
type distJSON struct {
	Labels []string `json:"labels"`
	Counts []uint64 `json:"counts"`
}

// MarshalJSON encodes the distribution with its label order intact.
func (d *Dist) MarshalJSON() ([]byte, error) {
	return json.Marshal(distJSON{Labels: d.labels, Counts: d.counts})
}

// UnmarshalJSON rebuilds the distribution, including its label index.
func (d *Dist) UnmarshalJSON(data []byte) error {
	var w distJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.Labels) != len(w.Counts) {
		return fmt.Errorf("stats: dist with %d labels but %d counts", len(w.Labels), len(w.Counts))
	}
	nd := NewDist(w.Labels...)
	copy(nd.counts, w.Counts)
	*d = *nd
	return nil
}

// MarshalJSON encodes the reuse histogram as its bucket counts in
// bucket order.
func (h ReuseHist) MarshalJSON() ([]byte, error) {
	return json.Marshal(h.counts[:])
}

// UnmarshalJSON decodes the bucket counts.
func (h *ReuseHist) UnmarshalJSON(data []byte) error {
	var counts []uint64
	if err := json.Unmarshal(data, &counts); err != nil {
		return err
	}
	if len(counts) != len(h.counts) {
		return fmt.Errorf("stats: reuse histogram with %d buckets, want %d", len(counts), len(h.counts))
	}
	copy(h.counts[:], counts)
	return nil
}

// tableJSON is the wire shape of a rendered-table value (the capacity
// report memoizes a whole Table as its cell value).
type tableJSON struct {
	Title string     `json:"title"`
	Rows  [][]string `json:"rows"`
}

// MarshalJSON encodes the table's title and rows.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(tableJSON{Title: t.Title, Rows: t.rows})
}

// UnmarshalJSON decodes a table encoded by MarshalJSON.
func (t *Table) UnmarshalJSON(data []byte) error {
	var w tableJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	t.Title, t.rows = w.Title, w.Rows
	return nil
}
