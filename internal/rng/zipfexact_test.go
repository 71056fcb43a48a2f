package rng_test

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"cmpnurapid/internal/rng"
	"cmpnurapid/internal/workload"
)

// searchRank is the binary search the guide table replaced: the first
// i with cdf[i] >= u, or len(cdf)-1 if there is none. It is the oracle
// the guide lookup must match draw for draw.
func searchRank(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

type zipfParams struct {
	n     int
	theta float64
}

// workloadTables lists every (n, theta) table the workload package
// builds, plus the edge sizes around 1 and the tabulation limit.
func workloadTables() []zipfParams {
	var ps []zipfParams
	add := func(blocks int, theta float64) {
		ps = append(ps, zipfParams{max(blocks, 1), theta})
	}
	profiles := append(workload.Multithreaded(42),
		workload.Hammer(42), workload.AllShared(42), workload.MaxThreads(42))
	for _, p := range profiles {
		add(p.CodeBlocks, p.CodeTheta)
		add(p.ROBlocks, p.ROTheta)
		add(p.RWBlocks, p.RWTheta)
		for _, b := range p.PrivateBlocks {
			add(b, p.PrivateTheta)
		}
	}
	for _, a := range []workload.App{
		workload.Apsi, workload.Art, workload.Equake, workload.Mesa, workload.Ammp,
		workload.Swim, workload.Vortex, workload.Mcf, workload.Gzip, workload.Wupwise,
	} {
		add(a.Blocks, a.Theta)
	}
	for _, n := range []int{1, 2, 3, 65535, 65536} {
		add(n, 0.9)
	}
	seen := map[zipfParams]bool{}
	var out []zipfParams
	for _, p := range ps {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// exhaustiveRanks is the table size up to which every CDF entry (and
// its neighbours) is drawn; larger tables draw a sample of entries.
const exhaustiveRanks = 4096

// TestZipfGuideMatchesBinarySearch checks that the guide-table lookup
// returns the binary search's rank for the draws where the two could
// disagree: the ends of [0, 1), both ends of every guide bucket (j/m
// and the largest float64 below (j+1)/m, so a bucket marked as holding
// one rank is checked at its first and last draw), every CDF value and
// its two floating-point neighbours, and random draws.
func TestZipfGuideMatchesBinarySearch(t *testing.T) {
	src := rng.New(2026)
	for _, p := range workloadTables() {
		t.Run(fmt.Sprintf("n=%d/theta=%g", p.n, p.theta), func(t *testing.T) {
			tab := rng.NewZipfTable(p.n, p.theta)
			cdf := tab.CDF()
			if len(cdf) != p.n || cdf[p.n-1] != 1 {
				t.Fatalf("cdf has %d entries ending at %v, want %d ending at exactly 1", len(cdf), cdf[len(cdf)-1], p.n)
			}
			m := tab.GuideLen()
			if m != 1<<bits.Len(uint(p.n-1)) {
				t.Fatalf("guide has %d entries, want the smallest power of two >= %d", m, p.n)
			}
			check := func(u float64) {
				if u < 0 || u >= 1 {
					return // not a Float64 draw
				}
				if got, want := tab.Rank(u), searchRank(cdf, u); got != want {
					t.Fatalf("u=%v (%b): guide rank %d, binary search %d", u, u, got, want)
				}
			}
			check(0)
			check(1 - 0x1p-53)
			for j := 0; j < m; j++ {
				check(float64(j) / float64(m))
				check(math.Nextafter(float64(j+1)/float64(m), 0))
			}
			probe := func(i int) {
				check(math.Nextafter(cdf[i], 0))
				check(cdf[i])
				check(math.Nextafter(cdf[i], 1))
			}
			if p.n <= exhaustiveRanks {
				for i := range cdf {
					probe(i)
				}
			} else {
				// The Zipf head, where many guide entries share a rank,
				// then a uniform sample of the tail, then the last rank.
				for i := 0; i < exhaustiveRanks/4; i++ {
					probe(i)
				}
				for k := 0; k < exhaustiveRanks*3/4; k++ {
					probe(src.Intn(p.n))
				}
				probe(p.n - 1)
			}
			for k := 0; k < 100_000; k++ {
				check(src.Float64())
			}
		})
	}
}
