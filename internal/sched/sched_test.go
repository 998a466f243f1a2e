package sched

import "testing"

// TestMinStealLenScaling pins the p-scaled steal threshold: max(2, p/2).
// These exact values are load-bearing — lowering them reintroduces the
// bursty re-idling on small graphs at high p, raising them starves
// thieves on two-processor runs.
func TestMinStealLenScaling(t *testing.T) {
	want := map[int]int{1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 3, 8: 4, 16: 8, 32: 16}
	for p, w := range want {
		if got := MinStealLen(p); got != w {
			t.Errorf("MinStealLen(%d) = %d, want %d", p, got, w)
		}
	}
}
