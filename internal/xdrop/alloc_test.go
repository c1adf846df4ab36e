package xdrop

import (
	"math/rand"
	"testing"
)

// TestSeedExtensionZeroAlloc holds the Workspace's contract as a property:
// once warmed to the workload, one seed extension allocates nothing under
// any row kernel.
func TestSeedExtensionZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q, tt := benchPair(rng, 600)
	lin := DefaultScoring()
	w := NewWorkspace()
	scheme := func(sch Scheme) func() (SeedResult, error) {
		return func() (SeedResult, error) { return w.ExtendSeedScheme(q, tt, 300, 300, 17, sch, 50) }
	}
	cases := []struct {
		name string
		ext  func() (SeedResult, error)
	}{
		{"linear/scalar", scheme(LinearScheme(lin))},
		{"linear/vector", func() (SeedResult, error) {
			return w.ExtendSeedKernel(q, tt, 300, 300, 17, lin, 50, KernelVector)
		}},
		{"affine", scheme(AffineScheme(AffineScoring{Match: 1, Mismatch: -1, GapOpen: -2, GapExtend: -1}))},
		{"matrix", scheme(MatrixScheme(dnaMatrix(t, lin)))},
	}
	for _, tc := range cases {
		run := func() {
			if _, err := tc.ext(); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the buffers
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s: %v allocs per warmed seed extension, want 0", tc.name, allocs)
		}
	}
}
