package xdrop

import (
	"context"
	"math/rand"
	"testing"

	"logan/internal/seq"
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
		return func() (SeedResult, error) { return w.extendSeed(q, tt, 300, 300, 17, sch, 50, KernelScalar, nil) }
	}
	cases := []struct {
		name string
		ext  func() (SeedResult, error)
	}{
		{"linear/scalar", scheme(LinearScheme(lin))},
		{"linear/vector", func() (SeedResult, error) {
			return w.extendSeed(q, tt, 300, 300, 17, LinearScheme(lin), 50, KernelVector, nil)
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

// TestPoolBatchAllocs holds a warmed Pool batch to the one allocation of
// its job: the workers' workspaces, and on AVX-512 their paired streams,
// allocate nothing once grown.
func TestPoolBatchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pairs := seq.RandPairSet(rng, seq.PairSetOptions{N: 32, MinLen: 300, MaxLen: 900, ErrorRate: 0.15, SeedLen: 17})
	results := make([]SeedResult, len(pairs))
	p := NewPool(1)
	defer p.Close()
	run := func() {
		if _, err := p.ExtendBatchScheme(context.Background(), pairs, results, LinearScheme(DefaultScoring()), 25); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the buffers
	if allocs := testing.AllocsPerRun(20, run); allocs > 1 {
		t.Errorf("%v allocs per warmed batch, want at most 1 (the job)", allocs)
	}
}
