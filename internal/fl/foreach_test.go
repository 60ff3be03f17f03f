package fl

import (
	"sync/atomic"
	"testing"
)

// TestForEachVisitsEachIndexOnce: every index runs exactly once, on a
// worker numbered below the worker count actually used, for counts
// below, at and above n (0 = GOMAXPROCS).
func TestForEachVisitsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100} {
		for _, workers := range []int{0, 1, 3, 200} {
			visits := make([]atomic.Int32, n)
			var badWorker atomic.Bool
			limit := workers
			if limit <= 0 || limit > n {
				limit = max(n, 1)
			}
			ForEach(n, workers, func(w, i int) {
				if w < 0 || w >= limit {
					badWorker.Store(true)
				}
				visits[i].Add(1)
			})
			for i := range visits {
				if v := visits[i].Load(); v != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, v)
				}
			}
			if badWorker.Load() {
				t.Errorf("n=%d workers=%d: worker index outside [0, %d)", n, workers, limit)
			}
		}
	}
}
