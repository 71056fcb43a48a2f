// Package minimod is the mutation-testing fixture: a tiny module with
// at least one candidate site for every mutcheck operator. lib_test.go
// kills most of the mutants; the boundary swaps in Clamp and in
// FirstPositive's sign test are equivalent and survive. Package
// campaign holds the few mutants a real go test campaign runs.
package minimod

// Clamp returns v limited to [lo, hi].
func Clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Ready reports whether n has reached the threshold.
func Ready(n int) bool {
	if n >= 3 {
		return true
	}
	return false
}

// FirstPositive returns the index of the first positive element that
// is also below limit, or -1.
func FirstPositive(a []int, limit int) int {
	for i := 0; i < len(a); i++ {
		if a[i] > 0 && a[i] < limit {
			return i
		}
	}
	return -1
}
