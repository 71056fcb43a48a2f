package campaign

import "testing"

func TestLast(t *testing.T) {
	if got := Last([]int{7, 9}); got != 9 {
		t.Errorf("Last = %d, want 9", got)
	}
}
