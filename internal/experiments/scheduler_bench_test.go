package experiments

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkExecuteCells measures the worker pool's own overhead —
// queue fill, goroutine spawn, per-cell panic capture and publication
// — against a synthetic plan of 256 cheap deterministic cells, at the
// two worker counts the parallel-throughput baseline tracks. Cells do
// fixed arithmetic rather than simulate, so the number is the
// scheduler's own cost, diffed against BENCH_quick.json.
func BenchmarkExecuteCells(b *testing.B) {
	for _, workers := range []int{4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
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
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				ExecuteCells(cells, workers, false, nil)
			}
		})
	}
}
