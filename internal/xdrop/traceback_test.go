package xdrop

import (
	"math/rand"
	"slices"
	"testing"

	"logan/internal/seq"
)

// checkOps runs one recording extension and asserts its two contracts:
// the Result is ExtendReference's field for field, and the columns
// rescore to Score while consuming exactly the prefixes q[:QueryEnd] and
// t[:TargetEnd]. It returns the columns in alignment order.
func checkOps(t *testing.T, w *Workspace, q, tt seq.Seq, sc Scoring, x int32) (Result, []Op) {
	t.Helper()
	got, ops := w.extendOps(q, tt, sc, x, nil)
	if want := ExtendReference(q, tt, sc, x); got != want {
		t.Fatalf("recording extension %+v != reference %+v (sc %+v x %d)", got, want, sc, x)
	}
	slices.Reverse(ops)
	score, err := Rescore(ops, q[:got.QueryEnd], tt[:got.TargetEnd], sc)
	if err != nil {
		t.Fatalf("columns %s: %v (sc %+v x %d)", string(ops), err, sc, x)
	}
	if score != got.Score {
		t.Fatalf("columns %s rescore to %d, want %d (sc %+v x %d)", string(ops), score, got.Score, sc, x)
	}
	return got, ops
}

// TestExtendOpsMatchesReference holds the recording extension to the
// frozen oracle over random and related pairs, schemes and X values, and
// the seed-and-extend entry point to ExtendSeedKernel with its columns
// rescoring to the seed result's score over exactly its intervals.
func TestExtendOpsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	w := NewWorkspace()
	schemes := []Scoring{
		DefaultScoring(),
		{Match: 2, Mismatch: -3, Gap: -2},
		{Match: 5, Mismatch: -4, Gap: -11},
		{Match: 255, Mismatch: -1, Gap: -1},
	}
	var ops []Op
	for trial := 0; trial < 600; trial++ {
		q := seq.RandSeq(rng, 1+rng.Intn(200))
		var tt seq.Seq
		if rng.Intn(3) == 0 {
			tt = seq.RandSeq(rng, 1+rng.Intn(200))
		} else {
			tt = seq.Mutate(rng, q, seq.UniformProfile(rng.Float64()*0.3))
		}
		sc := schemes[rng.Intn(len(schemes))]
		x := int32(rng.Intn(80))
		checkOps(t, w, q, tt, sc, x)

		// Plant a seed and extend from it both ways.
		seedLen := 1 + rng.Intn(12)
		qPos := rng.Intn(len(q) + 1)
		tPos := rng.Intn(len(tt) + 1)
		if qPos+seedLen > len(q) || tPos+seedLen > len(tt) {
			continue
		}
		tt = slices.Clone(tt)
		copy(tt[tPos:], q[qPos:qPos+seedLen])
		want, err := w.ExtendSeedKernel(q, tt, qPos, tPos, seedLen, sc, x, KernelScalar)
		if err != nil {
			t.Fatal(err)
		}
		var got SeedResult
		got, ops, err = w.ExtendSeedOps(q, tt, qPos, tPos, seedLen, sc, x, ops[:0])
		if err != nil || got != want {
			t.Fatalf("trial %d: ExtendSeedOps %+v, %v != ExtendSeedKernel %+v", trial, got, err, want)
		}
		score, err := Rescore(ops, q[got.QBegin:got.QEnd], tt[got.TBegin:got.TEnd], sc)
		if err != nil || score != got.Score {
			t.Fatalf("trial %d: seed columns rescore to %d, %v; want %d", trial, score, err, got.Score)
		}
	}
	if _, _, err := w.ExtendSeedOps(seq.MustNew("ACGT"), seq.MustNew("ACGT"), 2, 0, 4, DefaultScoring(), 10, nil); err == nil {
		t.Fatal("seed outside the query accepted")
	}
}

// TestExtendOpsMatchesExhaustiveLargeX: with X beyond any possible drop
// nothing is pruned, so the traced alignment reaches the exhaustive
// optimum.
func TestExtendOpsMatchesExhaustiveLargeX(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := NewWorkspace()
	sc := DefaultScoring()
	for trial := 0; trial < 40; trial++ {
		q := seq.RandSeq(rng, 1+rng.Intn(60))
		tt := seq.RandSeq(rng, 1+rng.Intn(60))
		got, _ := checkOps(t, w, q, tt, sc, 1<<20)
		if want := ExtendExhaustive(q, tt, sc); got.Score != want.Score {
			t.Fatalf("trial %d: traced score %d != exhaustive %d", trial, got.Score, want.Score)
		}
	}
}

// TestExtendOpsRescore checks the columns of related reads at 12 %
// divergence: they rescore exactly, and their identity reflects the
// error channel.
func TestExtendOpsRescore(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := NewWorkspace()
	for trial := 0; trial < 30; trial++ {
		base := seq.RandSeq(rng, 100+rng.Intn(200))
		mut := seq.Mutate(rng, base, seq.UniformProfile(0.12))
		_, ops := checkOps(t, w, base, mut, DefaultScoring(), 50)
		matches := 0
		for _, op := range ops {
			if op == OpMatch {
				matches++
			}
		}
		if id := float64(matches) / float64(len(ops)); id < 0.7 || id > 0.98 {
			t.Fatalf("identity %.3f implausible for 12%% errors", id)
		}
	}
}

// TestExtendOpsEmptyAndDegenerate covers the inputs with no alignment or
// an all-border one, and Rescore's rejections.
func TestExtendOpsEmptyAndDegenerate(t *testing.T) {
	w := NewWorkspace()
	s := seq.MustNew("ACGT")
	for _, c := range []struct{ q, t seq.Seq }{{nil, s}, {s, nil}, {nil, nil}} {
		if r, ops := checkOps(t, w, c.q, c.t, DefaultScoring(), 10); r.Score != 0 || len(ops) != 0 {
			t.Fatalf("empty side: %+v, %q", r, string(ops))
		}
	}
	if r, ops := w.extendOps(s, s, DefaultScoring(), -1, nil); r != (Result{}) || len(ops) != 0 {
		t.Fatalf("negative x: %+v, %q", r, string(ops))
	}
	// A heavy match weight makes a gap run along the border pay: four
	// deletions out of the origin, then the one match.
	sc := Scoring{Match: 100, Mismatch: -100, Gap: -1}
	_, ops := checkOps(t, w, seq.MustNew("A"), seq.MustNew("GGGGA"), sc, 10)
	if string(ops) != "DDDD=" {
		t.Fatalf("border path %q, want DDDD=", string(ops))
	}
	_, ops = checkOps(t, w, seq.MustNew("CCCCA"), seq.MustNew("A"), sc, 10)
	if string(ops) != "IIII=" {
		t.Fatalf("border path %q, want IIII=", string(ops))
	}

	q, tt := seq.MustNew("AC"), seq.MustNew("AG")
	for _, bad := range []string{"==", "=", "=X=", "=XD", "=I", "=Q"} {
		if _, err := Rescore([]Op(bad), q, tt, DefaultScoring()); err == nil {
			t.Errorf("Rescore accepted %q on AC/AG", bad)
		}
	}
	if got, err := Rescore([]Op("=ID"), q, tt, DefaultScoring()); err != nil || got != -1 {
		t.Errorf("Rescore(=ID) = %d, %v; want -1", got, err)
	}
}

// TestExtendOpsArenaScalesWithBand: the direction arena holds one byte
// per interior cell X-drop explored, far below the full quadratic
// matrix on long related reads.
func TestExtendOpsArenaScalesWithBand(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := seq.RandSeq(rng, 3000)
	mut := seq.Mutate(rng, base, seq.UniformProfile(0.1))
	w := NewWorkspace()
	r, _ := checkOps(t, w, base, mut, DefaultScoring(), 25)
	if full := len(base) * len(mut); len(w.dirs) >= full/20 || int64(len(w.dirs)) > r.Cells {
		t.Fatalf("arena of %d directions for %d cells of a %d-cell matrix", len(w.dirs), r.Cells, full)
	}
	if r.QueryEnd < len(base)*9/10 {
		t.Fatalf("extension stopped at %d of %d", r.QueryEnd, len(base))
	}
}

// FuzzExtendOps pins the recording extension to the frozen oracle on
// arbitrary sequences under arbitrary scorings and X values, and its
// columns to the score: they rescore to Score while consuming exactly
// the prefixes QueryEnd and TargetEnd end.
func FuzzExtendOps(f *testing.F) {
	f.Add([]byte("ACGTACGT"), []byte("ACGAACGT"), int32(10), uint8(0), uint8(0), uint8(0))
	f.Add([]byte("ACACACACACAC"), []byte("CACACACACACA"), int32(100), uint8(4), uint8(1), uint8(0))
	w := NewWorkspace()
	f.Fuzz(func(t *testing.T, qRaw, tRaw []byte, x int32, mRaw, mmRaw, gRaw uint8) {
		if len(qRaw) > 300 || len(tRaw) > 300 {
			return
		}
		if x < 0 {
			x = -x
		}
		x %= 1 << 20
		checkOps(t, w, sanitizeDNA(qRaw), sanitizeDNA(tRaw), fuzzScoring(mRaw, mmRaw, gRaw), x)
	})
}
