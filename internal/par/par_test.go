package par

import (
	"sync/atomic"
	"testing"
)

// TestClaim: every index runs exactly once, on a worker index in range,
// whatever the worker count, including more workers than indices and no
// indices at all.
func TestClaim(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{1, 3, 16} {
			runs := make([]atomic.Int32, n)
			var bad atomic.Int32
			Claim(n, workers, func(w, i int) {
				if w < 0 || w >= workers {
					bad.Add(1)
				}
				runs[i].Add(1)
			})
			if bad.Load() != 0 {
				t.Errorf("n=%d workers=%d: %d calls with a worker index outside [0,%d)", n, workers, bad.Load(), workers)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}
