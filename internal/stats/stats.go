// Package stats provides the measurement plumbing for the simulator:
// named categorical distributions (for the paper's access-breakdown
// figures), bucketed reuse histograms (Figure 7), and plain-text table
// rendering used by the experiment harness to print paper-style rows.
package stats

import (
	"encoding/csv"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Dist is an ordered categorical distribution: a fixed set of labels,
// each with a count. Order is presentation order (the order labels were
// registered), matching the stacked-bar ordering in the paper's figures.
// A label is found by scanning the labels: the simulator's
// distributions have at most six, where a scan of string compares
// (each a length check, then a pointer check, since the labels are
// constants) is cheaper than hashing the label into a map.
type Dist struct {
	labels []string
	counts []uint64
}

// NewDist creates a distribution over the given labels, all zero.
func NewDist(labels ...string) *Dist {
	for i, l := range labels {
		if slices.Contains(labels[:i], l) {
			panic("stats: duplicate label " + l)
		}
	}
	return &Dist{
		labels: append([]string(nil), labels...),
		counts: make([]uint64, len(labels)),
	}
}

// index returns label's position. It panics on an unknown label: a
// typo in a measurement site is a bug we want to fail loudly on.
func (d *Dist) index(label string) int {
	for i, l := range d.labels {
		if l == label {
			return i
		}
	}
	panic("stats: unknown label " + label)
}

// Add increments label by n. It panics on an unknown label.
func (d *Dist) Add(label string, n uint64) { d.counts[d.index(label)] += n }

// Inc increments label by one.
func (d *Dist) Inc(label string) { d.Add(label, 1) }

// Count returns the count for label.
func (d *Dist) Count(label string) uint64 { return d.counts[d.index(label)] }

// Total returns the sum of all counts.
func (d *Dist) Total() uint64 {
	var t uint64
	for _, c := range d.counts {
		t += c
	}
	return t
}

// Frac returns label's fraction of the total, or 0 for an empty dist.
func (d *Dist) Frac(label string) float64 {
	t := d.Total()
	if t == 0 {
		return 0
	}
	return float64(d.Count(label)) / float64(t)
}

// Labels returns the labels in presentation order.
func (d *Dist) Labels() []string { return append([]string(nil), d.labels...) }

// Reset zeroes all counts.
func (d *Dist) Reset() {
	for i := range d.counts {
		d.counts[i] = 0
	}
}

// String renders the distribution as "label: count (frac%)" lines.
func (d *Dist) String() string {
	var b strings.Builder
	t := d.Total()
	for i, l := range d.labels {
		frac := 0.0
		if t > 0 {
			frac = float64(d.counts[i]) / float64(t) * 100
		}
		fmt.Fprintf(&b, "%-18s %12d  %6.2f%%\n", l, d.counts[i], frac)
	}
	return b.String()
}

// ReuseBucket is one of the paper's Figure 7 reuse-count buckets.
type ReuseBucket int

// The paper buckets block lifetimes by how many times the block was
// reused (re-accessed after the miss that brought it in) before being
// replaced or invalidated: 0, 1, 2–5, and more than 5 reuses.
const (
	Reuse0 ReuseBucket = iota
	Reuse1
	Reuse2to5
	ReuseOver5
	numReuseBuckets
)

func (b ReuseBucket) String() string {
	switch b {
	case Reuse0:
		return "0 reuses"
	case Reuse1:
		return "1 reuse"
	case Reuse2to5:
		return "2-5 reuses"
	case ReuseOver5:
		return ">5 reuses"
	}
	return fmt.Sprintf("ReuseBucket(%d)", int(b))
}

// BucketOf maps a raw reuse count to its Figure 7 bucket.
func BucketOf(reuses int) ReuseBucket {
	switch {
	case reuses <= 0:
		return Reuse0
	case reuses == 1:
		return Reuse1
	case reuses <= 5:
		return Reuse2to5
	default:
		return ReuseOver5
	}
}

// Reuses is a cache line's reuse counter for the Figure 7 histograms.
// It saturates at 255 instead of wrapping: BucketOf puts every count
// above 5 in ReuseOver5, so a saturated count records exactly as the
// true count would.
type Reuses uint8

// Inc counts one more reuse.
func (r *Reuses) Inc() {
	if *r < math.MaxUint8 {
		*r++
	}
}

// ReuseHist counts block lifetimes by reuse bucket.
type ReuseHist struct {
	counts [numReuseBuckets]uint64
}

// Record adds one lifetime that saw the given number of reuses.
func (h *ReuseHist) Record(reuses int) { h.counts[BucketOf(reuses)]++ }

// Count returns the number of lifetimes in bucket b.
func (h *ReuseHist) Count(b ReuseBucket) uint64 { return h.counts[b] }

// Total returns the number of recorded lifetimes.
func (h *ReuseHist) Total() uint64 {
	var t uint64
	for _, c := range h.counts {
		t += c
	}
	return t
}

// Frac returns bucket b's fraction of all lifetimes (0 if empty).
func (h *ReuseHist) Frac(b ReuseBucket) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h.counts[b]) / float64(t)
}

// Fracs returns all four bucket fractions in bucket order.
func (h *ReuseHist) Fracs() [4]float64 {
	var f [4]float64
	for b := Reuse0; b < numReuseBuckets; b++ {
		f[b] = h.Frac(b)
	}
	return f
}

// Table accumulates rows of string cells and renders them with aligned
// columns, in the style of the paper's tables. The first row added is
// the header.
type Table struct {
	Title string
	rows  [][]string
}

// NewTable creates a table with the given title and header cells.
func NewTable(title string, header ...string) *Table {
	t := &Table{Title: title}
	if len(header) > 0 {
		t.rows = append(t.rows, header)
	}
	return t
}

// Row appends a row. Cells beyond the header width are allowed; the
// table simply widens.
func (t *Table) Row(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Rowf appends a row built from (label, formatted values...).
func (t *Table) Rowf(label string, format string, args ...any) {
	t.rows = append(t.rows, []string{label, fmt.Sprintf(format, args...)})
}

// String renders the table with space-aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	widths := []int{}
	for _, row := range t.rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, row := range t.rows {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
		if ri == 0 && len(t.rows) > 1 {
			total := 0
			for _, w := range widths {
				total += w + 2
			}
			b.WriteString(strings.Repeat("-", total-2))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// CSV renders the table as comma-separated values (RFC 4180 quoting),
// one line per row, header first; the title is omitted.
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	for _, row := range t.rows {
		// Writer.Write only fails on the underlying writer, which for
		// a strings.Builder cannot happen.
		_ = w.Write(row)
	}
	w.Flush()
	return b.String()
}

// StackedBar renders fractions as a fixed-width ASCII stacked bar, the
// terminal analogue of the paper's stacked-bar figures. Each segment
// uses the corresponding rune from glyphs (cycled if short); segments
// are sized by largest-remainder so the bar is always exactly width
// runes when the fractions sum to ~1.
func StackedBar(fracs []float64, width int, glyphs []rune) string {
	if width <= 0 || len(fracs) == 0 {
		return ""
	}
	if len(glyphs) == 0 {
		glyphs = []rune{'#', '=', '+', '.'}
	}
	total := 0.0
	for _, f := range fracs {
		if f > 0 {
			total += f
		}
	}
	if total <= 0 {
		return strings.Repeat(" ", width)
	}
	// Largest-remainder apportionment of width cells.
	cells := make([]int, len(fracs))
	rems := make([]float64, len(fracs))
	used := 0
	for i, f := range fracs {
		if f < 0 {
			f = 0
		}
		exact := f / total * float64(width)
		cells[i] = int(exact)
		rems[i] = exact - float64(cells[i])
		used += cells[i]
	}
	for used < width {
		best := 0
		for i := 1; i < len(rems); i++ {
			if rems[i] > rems[best] {
				best = i
			}
		}
		cells[best]++
		rems[best] = -1
		used++
	}
	var b strings.Builder
	for i, n := range cells {
		g := glyphs[i%len(glyphs)]
		for j := 0; j < n; j++ {
			b.WriteRune(g)
		}
	}
	return b.String()
}

// Pct formats a fraction as a percentage cell, e.g. 0.132 -> "13.2%".
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// Rel formats a relative-performance ratio, e.g. 1.13 -> "1.13x".
func Rel(f float64) string { return fmt.Sprintf("%.3fx", f) }
