package minimod

import "testing"

// The tests hit every boundary the operators perturb: exact threshold
// values (kills relswap/offbyone) and both sides of each branch (kills
// boolnegate/branchdel).
func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want int }{
		{-5, 0, 10, 0},
		{15, 0, 10, 10},
		{5, 0, 10, 5},
		{0, 0, 10, 0},
		{10, 0, 10, 10},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%d,%d,%d) = %d, want %d", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

func TestReady(t *testing.T) {
	for n, want := range map[int]bool{0: false, 2: false, 3: true, 4: true} {
		if got := Ready(n); got != want {
			t.Errorf("Ready(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestFirstPositive(t *testing.T) {
	cases := []struct {
		a     []int
		limit int
		want  int
	}{
		{[]int{-1, 1, 3}, 5, 1},
		{[]int{1}, 5, 0},
		{[]int{5}, 5, -1},
		{[]int{-2, -3}, 5, -1},
		{nil, 5, -1},
	}
	for _, c := range cases {
		if got := FirstPositive(c.a, c.limit); got != c.want {
			t.Errorf("FirstPositive(%v,%d) = %d, want %d", c.a, c.limit, got, c.want)
		}
	}
}
