package xdrop

import (
	"math/rand"
	"testing"
	"unsafe"

	"logan/internal/seq"
	"logan/internal/simd"
)

// rowISAs lists the vector-kernel variants this host can run: wave over
// the portable rows everywhere, plus every fused routine up to the one
// detectISA picked.
func rowISAs() []rowISA {
	isas := []rowISA{isaPortable}
	for isa := isaSSE2; isa <= detectISA(); isa++ {
		isas = append(isas, isa)
	}
	return isas
}

// eachISA calls f once per vector-kernel variant of this host, the
// dispatch pointed at it, and restores the dispatch afterwards.
func eachISA(f func()) {
	defer func(prev rowISA) { vectorISA = prev }(vectorISA)
	for _, isa := range rowISAs() {
		vectorISA = isa
		f()
	}
}

// forEachISA is eachISA with one named subtest per variant; it says so
// when the host cannot run the AVX2 or the AVX-512 routine.
func forEachISA(t *testing.T, f func(t *testing.T)) {
	eachISA(func() { t.Run(VectorISA(), f) })
	if detectISA() < isaAVX2 {
		t.Log("no AVX2 on this host: the 16-lane blocks were not exercised")
	}
	if detectISA() < isaAVX512 {
		t.Log("no AVX-512 on this host: the register mode was not exercised")
	}
}

// rowCase is one anti-diagonal handed to vectorKernel.row.
type rowCase struct {
	d3, d2m1  []int16 // len kn, kn+1
	qs, ts    []byte  // len kn
	sc        Scoring
	thr, best int16 // best >= thr, as in wave (x >= 0)
}

// want computes the row on the scalar int32 kernel (linearRow.row, itself
// pinned to ExtendReference): the oracle that is independent of the int16
// rows, vectorRowPortable and rowNarrow.
func (rc rowCase) want() (out []int16, nb int16, pos int) {
	widen := func(a []int16) []int32 {
		w := make([]int32, len(a))
		for i, v := range a {
			if w[i] = int32(v); v == negInf16 {
				w[i] = NegInf
			}
		}
		return w
	}
	out32 := make([]int32, len(rc.qs))
	nb32, pos := linearRow(rc.sc).row(widen(rc.d3), widen(rc.d2m1), out32, rc.qs, rc.ts, int32(rc.thr), int32(rc.best))
	out = make([]int16, len(out32))
	for i, v := range out32 {
		if out[i] = int16(v); v == NegInf {
			out[i] = negInf16
		}
	}
	return out, int16(nb32), pos
}

// check runs rc on the portable row kernel and compares stored diagonal,
// returned best and position with the oracle. out sits between canaries:
// the overlapped final block may write nothing outside [0, kn).
func (rc rowCase) check(tb testing.TB, w *Workspace) {
	tb.Helper()
	const pad, canary = 2 * simd.Lanes, int16(0x5a5a)
	kn := len(rc.qs)
	wantOut, wantNB, wantPos := rc.want()
	buf := make([]int16, pad+kn+pad)
	for i := range buf {
		buf[i] = canary
	}
	nb, pos := w.vectorKernelFor(rc.sc).row(rc.d3, rc.d2m1, buf[pad:pad+kn], rc.qs, rc.ts, rc.thr, rc.best)
	if nb != wantNB || pos != wantPos {
		tb.Fatalf("kn=%d: (best, pos) = (%d, %d), want (%d, %d)\n%+v", kn, nb, pos, wantNB, wantPos, rc)
	}
	for i, v := range buf {
		want := canary
		if i >= pad && i < pad+kn {
			want = wantOut[i-pad]
		}
		if v != want {
			tb.Fatalf("kn=%d: slot %d (out[%d]) = %d, want %d\n%+v", kn, i, i-pad, v, want, rc)
		}
	}
}

// randRowCase draws one row of width kn. shape picks the population:
// general rows, rows whose maximum repeats (first index must win), rows
// that cannot improve best, all-pruned rows, and thresholds at the two
// edges of the rebased range.
func randRowCase(rng *rand.Rand, kn, shape int) rowCase {
	rc := rowCase{
		d3: randRow(rng, kn), d2m1: randRow(rng, kn+1),
		qs: make([]byte, kn), ts: make([]byte, kn),
		sc: Scoring{Match: int32(1 + rng.Intn(255)), Mismatch: int32(-1 - rng.Intn(255)), Gap: int32(-1 - rng.Intn(255))},
	}
	for i := range rc.qs {
		rc.qs[i] = "ACGT"[rng.Intn(4)]
		rc.ts[i] = "ACGT"[rng.Intn(4)]
		if rng.Intn(2) == 0 {
			rc.ts[i] = rc.qs[i]
		}
	}
	rc.thr = int16(-8192 + rng.Intn(2*8192))
	rc.best = rc.thr + int16(rng.Intn(8192))
	switch shape {
	case 1: // duplicate maxima: a flat diagonal, gaps pruned, matches tie
		v := int16(rng.Intn(8192))
		for i := range rc.d3 {
			rc.d3[i] = v
		}
		for i := range rc.d2m1 {
			rc.d2m1[i] = negInf16
		}
		rc.thr, rc.best = v-100, v
	case 2: // no improvement: best above anything a row can score
		rc.best = 17000
	case 3: // all pruned
		rc.thr, rc.best = 16900, 17000
	case 4: // lowest reachable threshold (best 0, x = VectorMaxX)
		rc.thr, rc.best = -int16(VectorMaxX), 0
	case 5: // highest (best just under the rebase mark plus a match, x = 0)
		rc.thr = vectorRebaseAt + int16(VectorMaxScore) - 1
		rc.best = rc.thr
	}
	return rc
}

// TestVectorRowBlocks pins the portable row at lane-multiple widths
// (kn = blocks*8: no overlapped block) to the scalar oracle.
func TestVectorRowBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := NewWorkspace()
	for trial := 0; trial < 500; trial++ {
		randRowCase(rng, (1+rng.Intn(8))*simd.Lanes, trial%6).check(t, w)
	}
}

// TestVectorRow is the general row-level differential: every width from 1
// through 80 cells — rowNarrow, one 8-lane block, overlapped blocks —
// times 200 random rows of every shape.
func TestVectorRow(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	w := NewWorkspace()
	for kn := 1; kn <= 80; kn++ {
		for trial := 0; trial < 200; trial++ {
			randRowCase(rng, kn, trial%6).check(t, w)
		}
	}
}

// aliasGuard is the vector kernel behind a check of the property the
// overlapped final block depends on: out shares no memory with a source.
type aliasGuard struct {
	vectorKernel
	t *testing.T
}

func (g aliasGuard) row(d3, d2m1, out []int16, qs, ts seq.Seq, thr, best int16) (int16, int) {
	overlap := func(a, b []int16) bool {
		a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
		return a0 < b0+2*uintptr(len(b)) && b0 < a0+2*uintptr(len(a))
	}
	if overlap(out, d3) || overlap(out, d2m1) {
		g.t.Fatalf("wave handed row an out (len %d) overlapping a source", len(out))
	}
	return g.vectorKernel.row(d3, d2m1, out, qs, ts, thr, best)
}

// TestWaveNeverAliasesRow: across whole extensions (buffer rotation,
// rebases, growing and shrinking bands) the driver never hands row an out
// that overlaps d3 or d2m1.
func TestWaveNeverAliasesRow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	w := NewWorkspace()
	for trial := 0; trial < 50; trial++ {
		q := seq.RandSeq(rng, 1+rng.Intn(400))
		tt := seq.Mutate(rng, q, seq.UniformProfile(0.15))
		sc := Scoring{Match: 200, Mismatch: -150, Gap: -180} // rebases often
		x := int32(rng.Intn(1000))
		got := wave(&w.v, &w.rt, q, tt, int16(x), aliasGuard{w.vectorKernelFor(sc), t}, nil)
		if want := ExtendReference(q, tt, sc, x); got != want {
			t.Fatalf("trial %d: got %+v want %+v", trial, got, want)
		}
	}
}

// randRow fills a diagonal with a mix of live rebased-range values and
// negInf16 sentinels, the two populations the kernel must keep apart.
func randRow(rng *rand.Rand, n int) []int16 {
	row := make([]int16, n)
	for i := range row {
		if rng.Intn(5) == 0 {
			row[i] = negInf16
		} else {
			row[i] = int16(-8192 + rng.Intn(8192+16638))
		}
	}
	return row
}
