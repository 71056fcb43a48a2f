package experiments

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// benchCells is BenchmarkExecuteCells's synthetic plan: 256 cheap
// deterministic cells that do fixed arithmetic rather than simulate,
// so ExecuteCells over them costs the pool's own overhead. Each cell
// runs long enough (8,192 iterations) that the workers overlap, as
// they do on real cells.
func benchCells() []Cell {
	var sink atomic.Int64
	cells := make([]Cell, 256)
	for i := range cells {
		cells[i] = Cell{Key: fmt.Sprintf("bench/cell%03d", i), Run: func() {
			x := 0
			for j := 0; j < 8192; j++ {
				x += j ^ (x >> 3)
			}
			sink.Add(int64(x))
		}}
	}
	return cells
}

// BenchmarkExecuteCells measures the worker pool's own overhead —
// queue fill, goroutine spawn, per-cell panic capture and publication
// — over benchCells, at the two worker counts the parallel-throughput
// baseline tracks. TestExecuteCellsAllocs pins its allocations.
func BenchmarkExecuteCells(b *testing.B) {
	for _, workers := range []int{4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			cells := benchCells()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				ExecuteCells(cells, workers, false, nil)
			}
		})
	}
}

// TestExecuteCellsAllocs pins the pool's allocations per plan over
// benchCells: 7 with 4 workers and 11 with 8, one closure per worker
// goroutine plus the two channels and the failure slots. The count is
// exact because ExecuteCells joins its workers: each plan's goroutines
// have exited, and are free to reuse, before the next plan spawns its
// own. Any other count is a change to the pool's allocation profile,
// an improvement included; update the pin in the commit that explains
// it.
func TestExecuteCellsAllocs(t *testing.T) {
	cells := benchCells()
	for workers, want := range map[int]float64{4: 7, 8: 11} {
		got := testing.AllocsPerRun(10, func() { ExecuteCells(cells, workers, false, nil) })
		if got != want {
			t.Errorf("ExecuteCells with %d workers allocates %.0f times per plan, want %.0f", workers, got, want)
		}
	}
}
