package xdrop

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"logan/internal/seq"
)

// extendScalar runs one forward extension of sch on the scalar kernel, on
// a workspace from ExtendSeed's pool, so that successive calls reuse
// buffers a longer extension left behind.
func extendScalar(q, t seq.Seq, sch Scheme, x int32) Result {
	w := wsPool.Get().(*Workspace)
	defer wsPool.Put(w)
	return w.extend(q, t, false, sch, x, KernelScalar, nil)
}

// extendSeedScalar runs one seed-and-extend of sch on the scalar kernel,
// on a workspace from ExtendSeed's pool.
func extendSeedScalar(q, t seq.Seq, qPos, tPos, seedLen int, sch Scheme, x int32) (SeedResult, error) {
	w := wsPool.Get().(*Workspace)
	defer wsPool.Put(w)
	return w.extendSeed(q, t, qPos, tPos, seedLen, sch, x, KernelScalar, nil)
}

func TestScoringValidate(t *testing.T) {
	if err := DefaultScoring().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Scoring{
		{Match: 0, Mismatch: -1, Gap: -1},
		{Match: 1, Mismatch: 1, Gap: -1},
		{Match: 1, Mismatch: -1, Gap: 0},
	}
	for _, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", sc)
		}
	}
}

func TestExtendIdenticalSequences(t *testing.T) {
	sc := DefaultScoring()
	s := seq.MustNew("ACGTACGTACGTACGT")
	r := extendScalar(s, s, LinearScheme(sc), 10)
	if r.Score != int32(len(s)) {
		t.Fatalf("identical extend score = %d, want %d", r.Score, len(s))
	}
	if r.QueryEnd != len(s) || r.TargetEnd != len(s) {
		t.Fatalf("ends = (%d,%d), want (%d,%d)", r.QueryEnd, r.TargetEnd, len(s), len(s))
	}
}

func TestExtendEmptyInputs(t *testing.T) {
	sc := DefaultScoring()
	s := seq.MustNew("ACGT")
	for _, tc := range []struct{ q, t seq.Seq }{
		{nil, s}, {s, nil}, {nil, nil},
	} {
		r := extendScalar(tc.q, tc.t, LinearScheme(sc), 10)
		if r.Score != 0 || r.QueryEnd != 0 || r.TargetEnd != 0 {
			t.Fatalf("empty extend = %+v, want zero result", r)
		}
	}
}

func TestExtendDivergentTerminatesEarly(t *testing.T) {
	// Two unrelated sequences: X-drop must abandon the search after a
	// small number of anti-diagonals instead of filling the matrix.
	rng := rand.New(rand.NewSource(1))
	q := seq.RandSeq(rng, 4000)
	tt := seq.RandSeq(rng, 4000)
	r := extendScalar(q, tt, LinearScheme(DefaultScoring()), 20)
	full := int64(len(q)) * int64(len(tt))
	if r.Cells > full/10 {
		t.Fatalf("divergent pair explored %d cells, want far fewer than %d", r.Cells, full)
	}
	// And a related pair at the same X must explore far fewer cells per
	// anti-diagonal than the divergent one wastes before terminating.
	rel := seq.Mutate(rng, q, seq.UniformProfile(0.15))
	related := extendScalar(q, rel, LinearScheme(DefaultScoring()), 20)
	if related.AntiDiags < 10*r.AntiDiags/9 && r.AntiDiags > related.AntiDiags {
		t.Fatalf("divergent pair ran longer (%d anti-diags) than related pair (%d)", r.AntiDiags, related.AntiDiags)
	}
}

func TestExtendMatchesExhaustiveLargeX(t *testing.T) {
	// With x large enough that nothing is pruned, the X-drop search must
	// find the exact optimum of the semi-global prefix DP.
	rng := rand.New(rand.NewSource(2))
	sc := DefaultScoring()
	for trial := 0; trial < 60; trial++ {
		m, n := 1+rng.Intn(40), 1+rng.Intn(40)
		q := seq.RandSeq(rng, m)
		tt := seq.RandSeq(rng, n)
		got := extendScalar(q, tt, LinearScheme(sc), 1<<28)
		want := ExtendExhaustive(q, tt, sc)
		if got.Score != want.Score {
			t.Fatalf("trial %d: xdrop(inf)=%d, exhaustive=%d\nq=%s\nt=%s",
				trial, got.Score, want.Score, q, tt)
		}
	}
}

func TestExtendMonotonicInX(t *testing.T) {
	// A larger X never decreases the score: pruning only removes options.
	rng := rand.New(rand.NewSource(3))
	sc := DefaultScoring()
	for trial := 0; trial < 30; trial++ {
		base := seq.RandSeq(rng, 200)
		mut := seq.Mutate(rng, base, seq.UniformProfile(0.2))
		prev := int32(-1)
		for _, x := range []int32{0, 2, 5, 10, 25, 50, 100, 1 << 20} {
			r := extendScalar(base, mut, LinearScheme(sc), x)
			if r.Score < prev {
				t.Fatalf("trial %d: score decreased from %d to %d at x=%d", trial, prev, r.Score, x)
			}
			prev = r.Score
		}
	}
}

func TestExtendScoreUpperBound(t *testing.T) {
	// Property: any X-drop score is bounded by the exhaustive optimum and
	// by match * min(m, n).
	rng := rand.New(rand.NewSource(4))
	sc := DefaultScoring()
	f := func(seed int64, xRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(30), 1+r.Intn(30)
		q := seq.RandSeq(r, m)
		tt := seq.RandSeq(r, n)
		x := int32(xRaw)
		got := extendScalar(q, tt, LinearScheme(sc), x)
		exact := ExtendExhaustive(q, tt, sc)
		limit := int32(min(m, n)) * sc.Match
		return got.Score <= exact.Score && got.Score <= limit && got.Score >= 0
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExtendSymmetry(t *testing.T) {
	// Swapping query and target transposes the DP; with a symmetric
	// scheme the score must be identical.
	rng := rand.New(rand.NewSource(5))
	sc := DefaultScoring()
	for trial := 0; trial < 40; trial++ {
		q := seq.RandSeq(rng, 1+rng.Intn(60))
		tt := seq.RandSeq(rng, 1+rng.Intn(60))
		a := extendScalar(q, tt, LinearScheme(sc), 15)
		b := extendScalar(tt, q, LinearScheme(sc), 15)
		if a.Score != b.Score {
			t.Fatalf("asymmetric scores %d vs %d\nq=%s\nt=%s", a.Score, b.Score, q, tt)
		}
	}
}

func TestExtendEndsAreConsistent(t *testing.T) {
	// The reported end positions must reproduce the reported score when
	// the prefix pair is re-aligned exhaustively.
	rng := rand.New(rand.NewSource(6))
	sc := DefaultScoring()
	for trial := 0; trial < 30; trial++ {
		base := seq.RandSeq(rng, 150)
		mut := seq.Mutate(rng, base, seq.UniformProfile(0.1))
		r := extendScalar(base, mut, LinearScheme(sc), 30)
		if r.QueryEnd == 0 && r.TargetEnd == 0 {
			if r.Score != 0 {
				t.Fatalf("zero ends but score %d", r.Score)
			}
			continue
		}
		sub := ExtendExhaustive(base[:r.QueryEnd], mut[:r.TargetEnd], sc)
		if sub.Score < r.Score {
			t.Fatalf("prefix (%d,%d) exhaustive score %d < reported %d",
				r.QueryEnd, r.TargetEnd, sub.Score, r.Score)
		}
	}
}

func TestExtendBandNarrowsWithSmallX(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := seq.RandSeq(rng, 2000)
	mut := seq.Mutate(rng, base, seq.UniformProfile(0.15))
	sc := DefaultScoring()
	small := extendScalar(base, mut, LinearScheme(sc), 10)
	large := extendScalar(base, mut, LinearScheme(sc), 500)
	if small.MaxBand >= large.MaxBand {
		t.Fatalf("band did not grow with X: %d (X=10) vs %d (X=500)", small.MaxBand, large.MaxBand)
	}
	if small.Cells >= large.Cells {
		t.Fatalf("cells did not grow with X: %d vs %d", small.Cells, large.Cells)
	}
}

func TestExtendWorkCountersConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q := seq.RandSeq(rng, 300)
	tt := seq.Mutate(rng, q, seq.UniformProfile(0.1))
	r := extendScalar(q, tt, LinearScheme(DefaultScoring()), 50)
	if r.Cells != r.SumBand {
		t.Fatalf("cells %d != sum of band widths %d", r.Cells, r.SumBand)
	}
	if int64(r.MaxBand)*int64(r.AntiDiags) < r.Cells {
		t.Fatalf("MaxBand*AntiDiags=%d < Cells=%d", int64(r.MaxBand)*int64(r.AntiDiags), r.Cells)
	}
}

func TestExtendSeedCombination(t *testing.T) {
	sc := DefaultScoring()
	rng := rand.New(rand.NewSource(9))
	base := seq.RandSeq(rng, 400)
	pairs := seq.RandPairSet(rng, seq.PairSetOptions{N: 20, MinLen: 200, MaxLen: 400, ErrorRate: 0.1, SeedLen: 17})
	_ = base
	for _, p := range pairs {
		r, err := ExtendSeed(p.Query, p.Target, p.SeedQPos, p.SeedTPos, p.SeedLen, sc, 50)
		if err != nil {
			t.Fatal(err)
		}
		wantScore := r.Left.Score + r.Right.Score + int32(p.SeedLen)*sc.Match
		if r.Score != wantScore {
			t.Fatalf("combined score %d != %d", r.Score, wantScore)
		}
		if r.QBegin > p.SeedQPos || r.QEnd < p.SeedQPos+p.SeedLen {
			t.Fatalf("alignment [%d,%d) does not cover seed at %d", r.QBegin, r.QEnd, p.SeedQPos)
		}
		if r.QBegin < 0 || r.QEnd > len(p.Query) || r.TBegin < 0 || r.TEnd > len(p.Target) {
			t.Fatalf("extent outside sequences: %+v", r)
		}
	}
}

func TestExtendSeedValidation(t *testing.T) {
	s := seq.MustNew("ACGTACGTAC")
	sc := DefaultScoring()
	cases := []struct{ qp, tp, l int }{
		{-1, 0, 3}, {0, -1, 3}, {0, 0, 0}, {8, 0, 3}, {0, 8, 3},
		// qp+l and tp+l overflow int; the bounds check must not wrap.
		{math.MaxInt - 1, 0, 3}, {0, math.MaxInt - 1, 3},
	}
	for _, c := range cases {
		if _, err := ExtendSeed(s, s, c.qp, c.tp, c.l, sc, 10); err == nil {
			t.Errorf("ExtendSeed accepted seed (%d,%d,%d)", c.qp, c.tp, c.l)
		}
	}
	if _, err := ExtendSeed(s, s, 0, 0, 3, Scoring{Match: 0, Mismatch: -1, Gap: -1}, 10); err == nil {
		t.Error("ExtendSeed accepted invalid scoring")
	}
}

func TestExtendSeedAtEdges(t *testing.T) {
	// Seed flush against sequence boundaries: one of the extensions is
	// empty and must contribute zero.
	sc := DefaultScoring()
	s := seq.MustNew("ACGTACGTACGTACGT")
	r, err := ExtendSeed(s, s, 0, 0, 4, sc, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Left.Score != 0 || r.Left.Cells != 0 {
		t.Fatalf("left extension at edge = %+v, want empty", r.Left)
	}
	if r.Score != int32(len(s)) {
		t.Fatalf("score = %d, want %d", r.Score, len(s))
	}
	r, err = ExtendSeed(s, s, len(s)-4, len(s)-4, 4, sc, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Right.Score != 0 {
		t.Fatalf("right extension at edge = %+v, want empty", r.Right)
	}
}

func TestExtendBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pairs := seq.RandPairSet(rng, seq.PairSetOptions{N: 64, MinLen: 100, MaxLen: 300, ErrorRate: 0.15, SeedLen: 17})
	sc := DefaultScoring()
	run := func(workers int) ([]SeedResult, BatchStats) {
		p := NewPool(workers)
		defer p.Close()
		out := make([]SeedResult, len(pairs))
		stats, err := p.ExtendBatchScheme(context.Background(), pairs, out, LinearScheme(sc), 30)
		if err != nil {
			t.Fatal(err)
		}
		return out, stats
	}
	parallel, stats := run(8)
	serial, _ := run(1)
	for i := range pairs {
		if parallel[i].Score != serial[i].Score {
			t.Fatalf("pair %d: parallel score %d != serial %d", i, parallel[i].Score, serial[i].Score)
		}
	}
	if stats.Pairs != 64 || stats.Cells <= 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.MeanBand() <= 0 || float64(stats.MaxBand) < stats.MeanBand() {
		t.Fatalf("band stats inconsistent: %+v", stats)
	}
}

func TestExtendBatchEmptyAndErrors(t *testing.T) {
	sc := DefaultScoring()
	p := NewPool(4)
	defer p.Close()
	stats, err := p.ExtendBatchScheme(context.Background(), nil, nil, LinearScheme(sc), 10)
	if err != nil || stats.Pairs != 0 {
		t.Fatalf("empty batch: stats=%+v err=%v", stats, err)
	}
	bad := []seq.Pair{{Query: seq.MustNew("ACGT"), Target: seq.MustNew("ACGT"), SeedQPos: 3, SeedTPos: 0, SeedLen: 4}}
	if _, err := p.ExtendBatchScheme(context.Background(), bad, make([]SeedResult, len(bad)), LinearScheme(sc), 10); err == nil {
		t.Fatal("batch accepted out-of-range seed")
	}
}

func TestNoExplorationPastTermination(t *testing.T) {
	// After the score drops by more than X with no recovery possible, the
	// anti-diagonal count must stay near the drop point.
	sc := DefaultScoring()
	q := append(seq.MustNew("ACGTACGTACGTACGTACGT"), seq.MustNew("TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTT")...)
	tt := append(seq.MustNew("ACGTACGTACGTACGTACGT"), seq.MustNew("GGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGG")...)
	r := extendScalar(q, tt, LinearScheme(sc), 5)
	if r.Score != 20 {
		t.Fatalf("score = %d, want 20 (the shared prefix)", r.Score)
	}
	if r.AntiDiags > 60 {
		t.Fatalf("explored %d anti-diagonals past a hard divergence", r.AntiDiags)
	}
}

func BenchmarkExtendRelated(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	base := seq.RandSeq(rng, 5000)
	mut := seq.Mutate(rng, base, seq.PacBioProfile(0.15))
	sch := LinearScheme(DefaultScoring())
	w := NewWorkspace()
	b.ResetTimer()
	var cells int64
	for i := 0; i < b.N; i++ {
		r := w.extend(base, mut, false, sch, 100, KernelScalar, nil)
		cells += r.Cells
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds()/1e9, "GCUPS")
}

func BenchmarkExtendDivergent(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	q := seq.RandSeq(rng, 5000)
	tt := seq.RandSeq(rng, 5000)
	sch := LinearScheme(DefaultScoring())
	w := NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.extend(q, tt, false, sch, 100, KernelScalar, nil)
	}
}
