package rng

// Test-only views of a ZipfTable's internals, for the exactness test
// in package rng_test (which imports the workload package and so
// cannot live inside package rng).

// CDF returns the table's normalised CDF (nil when n is not tabulated).
func (t *ZipfTable) CDF() []float64 { return t.cdf }

// GuideLen returns the number of guide-table entries.
func (t *ZipfTable) GuideLen() int { return len(t.guide) }

// Rank returns the rank the sampler draws for the uniform u.
func (t *ZipfTable) Rank(u float64) int { return t.rank(u) }
