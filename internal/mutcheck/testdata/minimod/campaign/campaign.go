// Package campaign is the fixture a real mutation campaign runs over:
// five mutants, one that TestLast kills and four in Untested, which no
// test exercises, so they survive.
package campaign

// Last returns the final element of a.
func Last(a []int) int {
	return a[len(a)-1]
}

// Untested is never exercised by the fixture tests: every mutant in
// here survives.
func Untested(x int) int {
	if x == 10 {
		x = 0
	}
	return x
}
