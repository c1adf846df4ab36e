package ksw2

import (
	"math/rand"
	"testing"

	"logan/internal/seq"
)

// affineExhaustive is the quadratic affine-gap oracle: the exact maximum
// extension score over all prefix pairs (Gotoh's algorithm, no pruning).
func affineExhaustive(q, t seq.Seq, p Params) (int32, int, int) {
	m, n := len(q), len(t)
	if m == 0 || n == 0 {
		return 0, 0, 0
	}
	hPrev := make([]int32, m+1)
	ePrev := make([]int32, m+1)
	hCur := make([]int32, m+1)
	eCur := make([]int32, m+1)
	best, bi, bj := int32(0), 0, 0
	hPrev[0] = 0
	ePrev[0] = NegInf
	for j := 1; j <= m; j++ {
		hPrev[j] = -(p.GapOpen + int32(j)*p.GapExt)
		ePrev[j] = NegInf
	}
	for i := 1; i <= n; i++ {
		hCur[0] = -(p.GapOpen + int32(i)*p.GapExt)
		eCur[0] = NegInf
		f := NegInf
		for j := 1; j <= m; j++ {
			diag := hPrev[j-1]
			if q[j-1] == t[i-1] {
				diag += p.Match
			} else {
				diag -= p.Mismatch
			}
			ev := hPrev[j] - p.GapOpen - p.GapExt
			if v := ePrev[j] - p.GapExt; v > ev {
				ev = v
			}
			fv := hCur[j-1] - p.GapOpen - p.GapExt
			if v := f - p.GapExt; v > fv {
				fv = v
			}
			s := diag
			if ev > s {
				s = ev
			}
			if fv > s {
				s = fv
			}
			hCur[j] = s
			eCur[j] = ev
			f = fv
			if s > best {
				best, bi, bj = s, i, j
			}
		}
		hPrev, hCur = hCur, hPrev
		ePrev, eCur = eCur, ePrev
	}
	return best, bj, bi
}

func TestExtendZIdentical(t *testing.T) {
	p := MinimapParams(100)
	s := seq.MustNew("ACGTACGTACGTACGTACGT")
	r := ExtendZ(s, s, p)
	if r.Score != int32(len(s))*p.Match {
		t.Fatalf("identical score = %d, want %d", r.Score, int32(len(s))*p.Match)
	}
	if r.QueryEnd != len(s) || r.TargetEnd != len(s) {
		t.Fatalf("ends (%d,%d), want (%d,%d)", r.QueryEnd, r.TargetEnd, len(s), len(s))
	}
	if r.ZDropped {
		t.Fatal("identical pair z-dropped")
	}
}

func TestExtendZEmpty(t *testing.T) {
	p := MinimapParams(100)
	s := seq.MustNew("ACGT")
	if r := ExtendZ(nil, s, p); r.Score != 0 || r.Cells != 0 {
		t.Fatalf("empty query: %+v", r)
	}
	if r := ExtendZ(s, nil, p); r.Score != 0 || r.Cells != 0 {
		t.Fatalf("empty target: %+v", r)
	}
}

func TestExtendZMatchesExhaustiveNoZdrop(t *testing.T) {
	// With Z-drop disabled the banded code must agree exactly with the
	// full Gotoh DP.
	rng := rand.New(rand.NewSource(1))
	p := MinimapParams(0)
	for trial := 0; trial < 60; trial++ {
		q := seq.RandSeq(rng, 1+rng.Intn(40))
		tt := seq.RandSeq(rng, 1+rng.Intn(40))
		got := ExtendZ(q, tt, p)
		want, _, _ := affineExhaustive(q, tt, p)
		if got.Score != want {
			t.Fatalf("trial %d: banded=%d exhaustive=%d\nq=%s\nt=%s", trial, got.Score, want, q, tt)
		}
	}
}

func TestExtendZMatchesExhaustiveLargeZ(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		base := seq.RandSeq(rng, 50+rng.Intn(100))
		mut := seq.Mutate(rng, base, seq.UniformProfile(0.15))
		p := MinimapParams(1 << 24)
		got := ExtendZ(base, mut, p)
		want, _, _ := affineExhaustive(base, mut, p)
		if got.Score != want {
			t.Fatalf("trial %d: large-Z banded=%d exhaustive=%d", trial, got.Score, want)
		}
	}
}

func TestExtendZScoreBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		q := seq.RandSeq(rng, 1+rng.Intn(80))
		tt := seq.RandSeq(rng, 1+rng.Intn(80))
		p := MinimapParams(int32(10 + rng.Intn(200)))
		got := ExtendZ(q, tt, p)
		exact, _, _ := affineExhaustive(q, tt, p)
		if got.Score > exact {
			t.Fatalf("banded score %d exceeds exhaustive %d", got.Score, exact)
		}
		if got.Score < 0 {
			t.Fatalf("negative extension score %d (origin scores 0)", got.Score)
		}
	}
}

func TestExtendZBandGrowsWithZ(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := seq.RandSeq(rng, 3000)
	mut := seq.Mutate(rng, base, seq.PacBioProfile(0.15))
	var prevBand int
	var prevCells int64
	for _, z := range []int32{10, 100, 1000} {
		r := ExtendZ(base, mut, MinimapParams(z))
		if r.MaxBand < prevBand || r.Cells < prevCells {
			t.Fatalf("band/cells shrank when Z grew: z=%d band=%d cells=%d", z, r.MaxBand, r.Cells)
		}
		prevBand, prevCells = r.MaxBand, r.Cells
	}
	// The growth must be substantial: Z=1000 explores an order of
	// magnitude more than Z=10. This is Table III's cost driver.
	small := ExtendZ(base, mut, MinimapParams(10))
	large := ExtendZ(base, mut, MinimapParams(1000))
	if large.Cells < 10*small.Cells {
		t.Fatalf("cells grew only %dx with 100x Z", large.Cells/max64(small.Cells, 1))
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestExtendZDivergentDrops(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := seq.RandSeq(rng, 3000)
	tt := seq.RandSeq(rng, 3000)
	r := ExtendZ(q, tt, MinimapParams(50))
	if !r.ZDropped {
		t.Fatal("divergent pair did not z-drop")
	}
	if r.Rows > 500 {
		t.Fatalf("divergent pair processed %d rows before dropping", r.Rows)
	}
}

func TestExtendZVecOpsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := seq.RandSeq(rng, 500)
	mut := seq.Mutate(rng, base, seq.UniformProfile(0.1))
	r := ExtendZ(base, mut, MinimapParams(100))
	if r.VecOps <= 0 {
		t.Fatal("no vector ops accounted")
	}
	// Vector ops must be consistent with cells: at most one vector chunk
	// per 1 cell, at least one per 8.
	if r.VecOps < r.Cells/8*RowVectorOps/2 || r.VecOps > (r.Cells+int64(r.Rows)*8)*RowVectorOps {
		t.Fatalf("vec ops %d inconsistent with cells %d", r.VecOps, r.Cells)
	}
}

func TestExtendSeedPair(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pairs := seq.RandPairSet(rng, seq.PairSetOptions{N: 10, MinLen: 300, MaxLen: 500, ErrorRate: 0.1, SeedLen: 17})
	p := MinimapParams(200)
	for _, pr := range pairs {
		l, r, score := ExtendSeed(pr, p)
		if score != l.Score+r.Score+17*p.Match {
			t.Fatalf("combined score %d mismatch", score)
		}
		if score < 17*p.Match {
			t.Fatalf("score %d below seed-only score", score)
		}
	}
}

func TestExtendBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pairs := seq.RandPairSet(rng, seq.PairSetOptions{N: 32, MinLen: 200, MaxLen: 400, ErrorRate: 0.15, SeedLen: 17})
	p := MinimapParams(100)
	par, stats := ExtendBatch(pairs, p, 4)
	ser, _ := ExtendBatch(pairs, p, 1)
	for i := range pairs {
		if par[i].Score != ser[i].Score {
			t.Fatalf("pair %d: parallel %d != serial %d", i, par[i].Score, ser[i].Score)
		}
	}
	if stats.Pairs != 32 || stats.Cells == 0 || stats.MeanBand() <= 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if _, empty := ExtendBatch(nil, p, 4); empty.Pairs != 0 {
		t.Fatal("empty batch produced stats")
	}
}

func BenchmarkExtendZ(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	base := seq.RandSeq(rng, 5000)
	mut := seq.Mutate(rng, base, seq.PacBioProfile(0.15))
	p := MinimapParams(100)
	b.ResetTimer()
	var cells int64
	for i := 0; i < b.N; i++ {
		r := ExtendZ(base, mut, p)
		cells += r.Cells
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds()/1e9, "GCUPS")
}
