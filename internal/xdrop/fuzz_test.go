package xdrop

import (
	"slices"
	"testing"

	"logan/internal/seq"
)

// sanitizeDNA maps arbitrary bytes onto the ACGT alphabet.
func sanitizeDNA(raw []byte) seq.Seq {
	out := make(seq.Seq, len(raw))
	for i, b := range raw {
		out[i] = seq.Alphabet[int(b)%4]
	}
	return out
}

// FuzzExtend hammers the X-drop core with arbitrary sequences and X
// values, checking the structural invariants that must hold for any
// input: score bounds, end positions inside the matrix, work counters
// consistent, and never exceeding the exhaustive optimum.
func FuzzExtend(f *testing.F) {
	f.Add([]byte("ACGTACGT"), []byte("ACGAACGT"), int32(10))
	f.Add([]byte(""), []byte("A"), int32(0))
	f.Add([]byte("TTTTTTTT"), []byte("AAAAAAAA"), int32(3))
	f.Add([]byte("ACACACACACAC"), []byte("CACACACACACA"), int32(100))
	f.Fuzz(func(t *testing.T, qRaw, tRaw []byte, x int32) {
		if len(qRaw) > 300 || len(tRaw) > 300 {
			return
		}
		if x < 0 {
			x = -x
		}
		if x > 1<<20 {
			x %= 1 << 20
		}
		q := sanitizeDNA(qRaw)
		tt := sanitizeDNA(tRaw)
		sc := DefaultScoring()
		r := extendScalar(q, tt, LinearScheme(sc), x)
		if r.Score < 0 {
			t.Fatalf("negative score %d", r.Score)
		}
		if r.QueryEnd < 0 || r.QueryEnd > len(q) || r.TargetEnd < 0 || r.TargetEnd > len(tt) {
			t.Fatalf("ends (%d,%d) outside matrix (%d,%d)", r.QueryEnd, r.TargetEnd, len(q), len(tt))
		}
		if r.Score > int32(min(len(q), len(tt))) {
			t.Fatalf("score %d exceeds min length", r.Score)
		}
		if r.Cells != r.SumBand {
			t.Fatalf("cells %d != band sum %d", r.Cells, r.SumBand)
		}
		if len(q) > 0 && len(tt) > 0 && len(q) <= 64 && len(tt) <= 64 {
			exact := ExtendExhaustive(q, tt, sc)
			if r.Score > exact.Score {
				t.Fatalf("pruned score %d beats exhaustive %d", r.Score, exact.Score)
			}
		}
	})
}

// fuzzScoring maps three raw bytes onto a vector-eligible scoring, the
// envelope edges (magnitude VectorMaxScore) included.
func fuzzScoring(m, mm, g uint8) Scoring {
	return Scoring{
		Match:    int32(m)%VectorMaxScore + 1,
		Mismatch: -int32(mm)%VectorMaxScore - 1,
		Gap:      -int32(g)%VectorMaxScore - 1,
	}
}

// FuzzExtendVectorDifferential pins the vector kernel bit-identical to
// the reference scalar implementation: same score, same end cell, same
// work counters, on arbitrary sequences under arbitrary eligible scoring,
// on every fused routine of this host (the scalar kernel itself where
// there is none); and the band trace ExtendTrace hands the simulated
// device identical across the scalar kernel and every vector variant,
// consistent with the work counters. The fuzzed parameters deliberately
// reach the envelope edges — match weights up to VectorMaxScore drive
// long extensions across the int16 rebase threshold (the fused routine
// returns to Go and resumes there), and X values above VectorMaxX
// exercise the scalar fallback path inside ExtendVector.
func FuzzExtendVectorDifferential(f *testing.F) {
	f.Add([]byte("ACGTACGT"), []byte("ACGAACGT"), int32(10), uint8(1), uint8(1), uint8(1))
	f.Add([]byte("ACACACACACAC"), []byte("CACACACACACA"), int32(100), uint8(255), uint8(1), uint8(1))
	f.Add([]byte("TTTTTTTT"), []byte("TTTTTTTT"), VectorMaxX, uint8(255), uint8(255), uint8(255))
	f.Add([]byte("GGGGCCCC"), []byte("GGGGCCCC"), VectorMaxX+1, uint8(2), uint8(3), uint8(4))
	ws := NewWorkspace()
	f.Fuzz(func(t *testing.T, qRaw, tRaw []byte, x int32, mRaw, mmRaw, gRaw uint8) {
		if len(qRaw) > 300 || len(tRaw) > 300 {
			return
		}
		if x < 0 {
			x = -x
		}
		// Keep a tail of the range beyond VectorMaxX so the fallback
		// branch stays covered.
		if x > 2*VectorMaxX {
			x %= 2 * VectorMaxX
		}
		q := sanitizeDNA(qRaw)
		tt := sanitizeDNA(tRaw)
		sc := fuzzScoring(mRaw, mmRaw, gRaw)
		want := ExtendReference(q, tt, sc, x)
		var scalar []int32
		if got := ws.extend(q, tt, false, LinearScheme(sc), x, KernelScalar, &scalar); got != want {
			t.Fatalf("scalar %+v != reference %+v (sc %+v x %d)", got, want, sc, x)
		}
		checkTrace(t, scalar, want)
		eachISA(func() {
			if got := ws.extend(q, tt, false, LinearScheme(sc), x, KernelVector, nil); got != want {
				t.Fatalf("%s vector %+v != reference %+v (sc %+v x %d)", VectorISA(), got, want, sc, x)
			}
			got, trace := ws.ExtendTrace(q, tt, false, sc, x, nil)
			if got != want {
				t.Fatalf("%s traced %+v != reference %+v (sc %+v x %d)", VectorISA(), got, want, sc, x)
			}
			if !slices.Equal(trace, scalar) {
				t.Fatalf("%s trace %v != scalar kernel's %v (sc %+v x %d)", VectorISA(), trace, scalar, sc, x)
			}
		})
	})
}

// checkTrace asserts the band-trace invariants of one extension: one
// width per anti-diagonal after the origin, the widths summing to the
// cells after the origin, none wider than MaxBand.
func checkTrace(t *testing.T, trace []int32, r Result) {
	t.Helper()
	var sum int64
	for _, w := range trace {
		if w < 1 || int(w) > r.MaxBand {
			t.Fatalf("trace width %d outside [1, MaxBand %d]", w, r.MaxBand)
		}
		sum += int64(w)
	}
	if r.AntiDiags == 0 {
		if len(trace) != 0 {
			t.Fatalf("empty extension traced %d anti-diagonals", len(trace))
		}
		return
	}
	if len(trace) != r.AntiDiags-1 || sum != r.Cells-1 {
		t.Fatalf("trace of %d widths summing to %d, want AntiDiags-1 = %d and Cells-1 = %d",
			len(trace), sum, r.AntiDiags-1, r.Cells-1)
	}
}

// FuzzExtendMatrix does the same for the protein path, and pins the
// matrix row kernel to the frozen linear oracle: over a DNA alphabet with
// match on the diagonal and mismatch off it, a matrix is the linear
// scheme, so the matrix kernel must equal ExtendReference field for field.
func FuzzExtendMatrix(f *testing.F) {
	f.Add([]byte("MKVL"), []byte("MKVL"), int32(20))
	f.Add([]byte("W"), []byte("W"), int32(0))
	m := Blosum62(-6)
	const residues = "ARNDCQEGHILKMFPSTWYV"
	lin := Scoring{Match: 2, Mismatch: -3, Gap: -4}
	dna := dnaMatrix(f, lin)
	f.Fuzz(func(t *testing.T, qRaw, tRaw []byte, x int32) {
		if len(qRaw) > 200 || len(tRaw) > 200 {
			return
		}
		if x < 0 {
			x = -x
		}
		x %= 1 << 16
		q := make([]byte, len(qRaw))
		for i, b := range qRaw {
			q[i] = residues[int(b)%len(residues)]
		}
		tt := make([]byte, len(tRaw))
		for i, b := range tRaw {
			tt[i] = residues[int(b)%len(residues)]
		}
		if !m.ValidSeq(q) || !m.ValidSeq(tt) {
			t.Fatalf("sanitized protein rejected: %q %q", q, tt)
		}
		r := extendScalar(q, tt, MatrixScheme(m), x)
		if r.Score < 0 {
			t.Fatalf("negative protein score %d", r.Score)
		}
		if r.QueryEnd > len(q) || r.TargetEnd > len(tt) {
			t.Fatal("protein ends outside matrix")
		}
		// 11 is the largest BLOSUM62 entry (W/W).
		if r.Score > 11*int32(min(len(q), len(tt))) {
			t.Fatalf("score %d exceeds matrix maximum", r.Score)
		}

		dq, dt := sanitizeDNA(qRaw), sanitizeDNA(tRaw)
		if !dna.ValidSeq(dq) || !dna.ValidSeq(dt) {
			t.Fatalf("sanitized DNA rejected: %q %q", dq, dt)
		}
		got := extendScalar(dq, dt, MatrixScheme(dna), x)
		if want := ExtendReference(dq, dt, lin, x); got != want {
			t.Fatalf("DNA-as-matrix %+v != reference %+v (x %d)", got, want, x)
		}
	})
}

// dnaMatrix expresses a linear DNA scoring as a substitution matrix over
// "ACGTN": match on the diagonal, mismatch everywhere else.
func dnaMatrix(tb testing.TB, sc Scoring) *Matrix {
	tb.Helper()
	const alphabet = "ACGTN"
	rows := make([][]int8, len(alphabet))
	for i := range rows {
		rows[i] = make([]int8, len(alphabet))
		for j := range rows[i] {
			rows[i][j] = int8(sc.Mismatch)
		}
		rows[i][i] = int8(sc.Match)
	}
	m, err := NewMatrix("DNA", alphabet, rows, sc.Gap)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}
