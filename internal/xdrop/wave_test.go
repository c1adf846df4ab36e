package xdrop

import (
	"math/rand"
	"slices"
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
		qs, rt := w.fused[0].stage(q, tt, false)
		got := wave(&w.d, qs, rt, x, aliasGuard{linearRow(sc), t}, nil)
		if want := ExtendReference(q, tt, sc, x); got != want {
			t.Fatalf("trial %d: got %+v want %+v", trial, got, want)
		}
	}
}

// TestStage pins the layout every kernel reads: q (reversed for rev) and
// the target reversed (as it stands for rev), each fusedPad bytes into its
// buffer with fusedPad bytes of slack after it. Staging writes only the
// copies, so the slack keeps whatever was there, and a buffer that has
// grown to the workload is reused, in place and without allocating.
func TestStage(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	const mark = 0xEE
	var s fusedSlot
	s.q, s.rt = make(seq.Seq, 400+2*fusedPad), make(seq.Seq, 400+2*fusedPad)
	q0, rt0 := &s.q[0], &s.rt[0]
	for _, tc := range []struct {
		m, n int
		rev  bool
	}{
		{0, 0, false}, {0, 5, true}, {1, 1, false}, {1, 1, true},
		{17, 300, false}, {17, 300, true}, {400, 9, false}, {400, 400, true},
	} {
		for _, b := range []seq.Seq{s.q, s.rt} {
			for i := range b[:cap(b)] {
				b[:cap(b)][i] = mark
			}
		}
		q, tt := seq.RandSeq(rng, tc.m), seq.RandSeq(rng, tc.n)
		wantQ, wantRT := slices.Clone(q), tt.Reverse()
		if tc.rev {
			wantQ, wantRT = q.Reverse(), slices.Clone(tt)
		}
		qs, rt := s.stage(q, tt, tc.rev)
		if !slices.Equal(qs, wantQ) || !slices.Equal(rt, wantRT) {
			t.Fatalf("%+v: staged %q, %q want %q, %q", tc, qs, rt, wantQ, wantRT)
		}
		for _, c := range []struct {
			name      string
			copy, buf seq.Seq
		}{{"q", qs, s.q}, {"rt", rt, s.rt}} {
			if len(c.buf) != len(c.copy)+2*fusedPad || &c.buf[:fusedPad+1][fusedPad] != &c.copy[:1][0] {
				t.Fatalf("%+v: %s copy of %d bytes not fusedPad into a buffer of %d", tc, c.name, len(c.copy), len(c.buf))
			}
			for i, v := range c.buf[:cap(c.buf)] {
				if (i < fusedPad || i >= fusedPad+len(c.copy)) && v != mark {
					t.Fatalf("%+v: %s buffer byte %d (copy at [%d, %d)) overwritten", tc, c.name, i, fusedPad, fusedPad+len(c.copy))
				}
			}
		}
		if &s.q[:1][0] != q0 || &s.rt[:1][0] != rt0 {
			t.Fatalf("%+v: a buffer grown to the workload was reallocated", tc)
		}
		if a := testing.AllocsPerRun(10, func() { s.stage(q, tt, tc.rev) }); a != 0 {
			t.Fatalf("%+v: %v allocations per stage", tc, a)
		}
	}
}
