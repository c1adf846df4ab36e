package xdrop

import (
	"math/rand"
	"testing"
	"unsafe"

	"logan/internal/seq"
)

// aliasGuard is the scalar row kernel behind a check of rowKernel's
// no-alias contract: out shares no memory with a source.
type aliasGuard struct {
	linearRow
	t *testing.T
}

func (g aliasGuard) row(d3, d2m1, out []int32, qs, ts seq.Seq, thr, best int32) (int32, int) {
	overlap := func(a, b []int32) bool {
		a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
		return a0 < b0+4*uintptr(len(b)) && b0 < a0+4*uintptr(len(a))
	}
	if overlap(out, d3) || overlap(out, d2m1) {
		g.t.Fatalf("wave handed row an out (len %d) overlapping a source", len(out))
	}
	return g.linearRow.row(d3, d2m1, out, qs, ts, thr, best)
}

// TestWaveNeverAliasesRow: across whole extensions (buffer rotation,
// growing and shrinking bands) the driver never hands row an out that
// overlaps d3 or d2m1.
func TestWaveNeverAliasesRow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := NewWorkspace()
	for trial := 0; trial < 50; trial++ {
		q := seq.RandSeq(rng, 1+rng.Intn(400))
		tt := seq.Mutate(rng, q, seq.UniformProfile(0.15))
		sc := Scoring{Match: 200, Mismatch: -150, Gap: -180}
		x := int32(rng.Intn(1000))
		got := wave(&w.d, &w.rt, q, tt, x, aliasGuard{linearRow(sc), t}, nil)
		if want := ExtendReference(q, tt, sc, x); got != want {
			t.Fatalf("trial %d: got %+v want %+v", trial, got, want)
		}
	}
}
