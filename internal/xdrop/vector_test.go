package xdrop

import (
	"math/rand"
	"testing"

	"logan/internal/seq"
)

// TestExtendVectorMatchesReference pins the vector kernel bit-identical to
// ExtendReference (and therefore to the scalar Workspace.Extend) across
// lengths, X values and scoring schemes inside the vector envelope.
func TestExtendVectorMatchesReference(t *testing.T) {
	forEachISA(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		w := NewWorkspace()
		schemes := []Scoring{
			DefaultScoring(),
			{Match: 2, Mismatch: -3, Gap: -4},
			{Match: 5, Mismatch: -1, Gap: -2},
			{Match: 255, Mismatch: -255, Gap: -255},
		}
		xs := []int32{0, 1, 5, 25, 100, 1000, VectorMaxX}
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(300)
			m := 1 + rng.Intn(300)
			q := seq.RandSeq(rng, n)
			tt := seq.Mutate(rng, seq.RandSeq(rng, m), seq.UniformProfile(0.2))
			sc := schemes[trial%len(schemes)]
			x := xs[trial%len(xs)]
			want := ExtendReference(q, tt, sc, x)
			got := w.ExtendVector(q, tt, sc, x)
			if got != want {
				t.Fatalf("trial %d (lens %d/%d, sc %+v, x %d):\n got %+v\nwant %+v",
					trial, n, m, sc, x, got, want)
			}
		}
	})
}

// TestExtendVectorRebase drives the local best far past the int16 range so
// the score-offset rebase must fire (repeatedly), and checks exactness.
func TestExtendVectorRebase(t *testing.T) {
	forEachISA(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		w := NewWorkspace()
		// 2000 identical bases at match=255: final score 510000, ~31 rebases.
		q := seq.RandSeq(rng, 2000)
		tt := append(seq.Seq(nil), q...)
		sc := Scoring{Match: 255, Mismatch: -255, Gap: -255}
		want := ExtendReference(q, tt, sc, 500)
		got := w.ExtendVector(q, tt, sc, 500)
		if got != want {
			t.Fatalf("rebase run: got %+v want %+v", got, want)
		}
		if got.Score != 510000 {
			t.Fatalf("perfect-match score %d, want 510000", got.Score)
		}

		// A noisy long pair near the saturation boundary: match large enough
		// that scores cross vectorRebaseAt many times.
		tt = seq.Mutate(rng, q, seq.UniformProfile(0.1))
		sc = Scoring{Match: 200, Mismatch: -150, Gap: -180}
		for _, x := range []int32{500, VectorMaxX} {
			want := ExtendReference(q, tt, sc, x)
			got := w.ExtendVector(q, tt, sc, x)
			if got != want {
				t.Fatalf("noisy rebase run x=%d: got %+v want %+v", x, got, want)
			}
		}
	})
}

// TestExtendVectorFallback checks that inputs outside the vector envelope
// are executed (exactly) by the scalar fallback rather than rejected.
func TestExtendVectorFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w := NewWorkspace()
	q := seq.RandSeq(rng, 400)
	tt := seq.Mutate(rng, q, seq.UniformProfile(0.15))
	for _, tc := range []struct {
		name string
		sc   Scoring
		x    int32
	}{
		{"x too wide", DefaultScoring(), VectorMaxX + 1},
		{"match too large", Scoring{Match: 300, Mismatch: -1, Gap: -1}, 100},
		{"gap too large", Scoring{Match: 1, Mismatch: -1, Gap: -300}, 100},
	} {
		if VectorEligible(tc.sc, tc.x) {
			t.Fatalf("%s: unexpectedly eligible", tc.name)
		}
		want := ExtendReference(q, tt, tc.sc, tc.x)
		got := w.ExtendVector(q, tt, tc.sc, tc.x)
		if got != want {
			t.Fatalf("%s: fallback got %+v want %+v", tc.name, got, want)
		}
	}
}
