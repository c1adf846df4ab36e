package xdrop

import (
	"math/rand"
	"testing"

	"logan/internal/seq"
)

func affineDefault() AffineScoring {
	return AffineScoring{Match: 2, Mismatch: -4, GapOpen: -4, GapExtend: -2}
}

// affineOracle is the exhaustive Gotoh semi-global prefix optimum.
func affineOracle(q, t seq.Seq, sc AffineScoring) int32 {
	m, n := len(q), len(t)
	if m == 0 || n == 0 {
		return 0
	}
	hPrev := make([]int32, n+1)
	ePrev := make([]int32, n+1)
	hCur := make([]int32, n+1)
	eCur := make([]int32, n+1)
	var best int32
	hPrev[0] = 0
	ePrev[0] = NegInf
	for j := 1; j <= n; j++ {
		hPrev[j] = sc.GapOpen + int32(j)*sc.GapExtend
		ePrev[j] = hPrev[j]
	}
	for i := 1; i <= m; i++ {
		hCur[0] = sc.GapOpen + int32(i)*sc.GapExtend
		eCur[0] = NegInf
		f := hCur[0]
		for j := 1; j <= n; j++ {
			e := hPrev[j] + sc.GapOpen + sc.GapExtend
			if v := ePrev[j] + sc.GapExtend; v > e {
				e = v
			}
			// note: e here is the vertical state (gap in query), tracked
			// per column; f is horizontal within the row.
			nf := hCur[j-1] + sc.GapOpen + sc.GapExtend
			if v := f + sc.GapExtend; v > nf {
				nf = v
			}
			f = nf
			h := hPrev[j-1]
			if q[i-1] == t[j-1] {
				h += sc.Match
			} else {
				h += sc.Mismatch
			}
			if e > h {
				h = e
			}
			if f > h {
				h = f
			}
			hCur[j] = h
			eCur[j] = e
			if h > best {
				best = h
			}
		}
		hPrev, hCur = hCur, hPrev
		ePrev, eCur = eCur, ePrev
	}
	return best
}

func TestAffineValidate(t *testing.T) {
	if err := affineDefault().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []AffineScoring{
		{Match: 0, Mismatch: -1, GapOpen: -1, GapExtend: -1},
		{Match: 1, Mismatch: 1, GapOpen: -1, GapExtend: -1},
		{Match: 1, Mismatch: -1, GapOpen: 1, GapExtend: -1},
		{Match: 1, Mismatch: -1, GapOpen: -1, GapExtend: 0},
	}
	for _, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("accepted %+v", sc)
		}
	}
}

func TestExtendAffineIdentical(t *testing.T) {
	s := seq.MustNew("ACGTACGTACGTACGT")
	r := extendScalar(s, s, AffineScheme(affineDefault()), 100)
	if r.Score != 2*int32(len(s)) {
		t.Fatalf("identical affine score %d, want %d", r.Score, 2*len(s))
	}
}

func TestExtendAffineMatchesOracleLargeX(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sc := affineDefault()
	for trial := 0; trial < 60; trial++ {
		q := seq.RandSeq(rng, 1+rng.Intn(40))
		tt := seq.RandSeq(rng, 1+rng.Intn(40))
		r := extendScalar(q, tt, AffineScheme(sc), 1<<28)
		want := affineOracle(q, tt, sc)
		if r.Score != want {
			t.Fatalf("trial %d: affine xdrop(inf)=%d oracle=%d\nq=%s\nt=%s",
				trial, r.Score, want, q, tt)
		}
	}
}

func TestExtendAffineBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sc := affineDefault()
	for trial := 0; trial < 40; trial++ {
		q := seq.RandSeq(rng, 1+rng.Intn(60))
		tt := seq.RandSeq(rng, 1+rng.Intn(60))
		x := int32(rng.Intn(100))
		r := extendScalar(q, tt, AffineScheme(sc), x)
		if r.Score > affineOracle(q, tt, sc) {
			t.Fatalf("pruned affine %d beats oracle", r.Score)
		}
		if r.Score < 0 {
			t.Fatalf("negative affine score %d", r.Score)
		}
	}
}

func TestExtendAffineGapStructure(t *testing.T) {
	// One long gap must beat two short ones under affine costs: compare a
	// target with a single 4-base deletion against one with two 2-base
	// deletions. Both have identical linear-gap scores; affine prefers
	// the contiguous gap by one GapOpen.
	q := seq.MustNew("ACGTACGTAAGGCCTTACGTACGT")
	single := seq.MustNew("ACGTACGTCCTTACGTACGT") // drops AAGG (one gap of 4)
	double := seq.MustNew("ACGTACGTGGTTACGTACGT") // drops AA and CC (two gaps of 2)
	sc := affineDefault()
	rs := extendScalar(q, single, AffineScheme(sc), 1<<20)
	rd := extendScalar(q, double, AffineScheme(sc), 1<<20)
	if rs.Score <= rd.Score {
		t.Fatalf("single gap %d should beat split gaps %d under affine costs", rs.Score, rd.Score)
	}
}

func TestExtendAffineDivergentPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := seq.RandSeq(rng, 2000)
	tt := seq.RandSeq(rng, 2000)
	r := extendScalar(q, tt, AffineScheme(affineDefault()), 30)
	full := int64(len(q)) * int64(len(tt))
	if r.Cells > full/20 {
		t.Fatalf("divergent affine explored %d of %d cells", r.Cells, full)
	}
}

func TestExtendAffineEmpty(t *testing.T) {
	s := seq.MustNew("ACGT")
	if r := extendScalar(nil, s, AffineScheme(affineDefault()), 10); r.Score != 0 {
		t.Fatalf("empty affine: %+v", r)
	}
}
