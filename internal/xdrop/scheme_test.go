package xdrop

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"logan/internal/seq"
)

func schemePairs(t *testing.T, n int) []seq.Pair {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	return seq.RandPairSet(rng, seq.PairSetOptions{
		N: n, MinLen: 120, MaxLen: 350, ErrorRate: 0.15, SeedLen: 17,
	})
}

func TestSchemeValidate(t *testing.T) {
	if err := LinearScheme(DefaultScoring()).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := LinearScheme(Scoring{}).Validate(); err == nil {
		t.Fatal("zero linear scheme accepted")
	}
	if err := AffineScheme(AffineScoring{Match: 1, Mismatch: -1, GapOpen: -2, GapExtend: -1}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := AffineScheme(AffineScoring{}).Validate(); err == nil {
		t.Fatal("zero affine scheme accepted")
	}
	if err := MatrixScheme(Blosum62(-6)).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := MatrixScheme(nil).Validate(); err == nil {
		t.Fatal("nil matrix scheme accepted")
	}
	if err := (Scheme{Kind: 99}).Validate(); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestExtendSeedAffineIdentical: on identical sequences the affine
// seed-and-extend must score len*match and span both sequences — no gap
// is ever opened.
func TestExtendSeedAffineIdentical(t *testing.T) {
	s := seq.MustNew("ACGTACGTACGTACGTACGT")
	sc := AffineScoring{Match: 1, Mismatch: -1, GapOpen: -2, GapExtend: -1}
	r, err := extendSeedScalar(s, s, 8, 8, 5, AffineScheme(sc), 30)
	if err != nil {
		t.Fatal(err)
	}
	if r.Score != int32(len(s)) || r.QBegin != 0 || r.QEnd != len(s) || r.TBegin != 0 || r.TEnd != len(s) {
		t.Fatalf("identical: %+v", r)
	}
}

// TestExtendSeedAffineReducesToLinear: with GapOpen = 0 the Gotoh
// recurrence degenerates to the linear scheme, so scores must equal
// ExtendSeed's on every pair.
func TestExtendSeedAffineReducesToLinear(t *testing.T) {
	sc := AffineScoring{Match: 1, Mismatch: -1, GapOpen: 0, GapExtend: -1}
	lin := Scoring{Match: 1, Mismatch: -1, Gap: -1}
	for i, p := range schemePairs(t, 24) {
		aff, err := extendSeedScalar(p.Query, p.Target, p.SeedQPos, p.SeedTPos, p.SeedLen, AffineScheme(sc), 50)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ExtendSeed(p.Query, p.Target, p.SeedQPos, p.SeedTPos, p.SeedLen, lin, 50)
		if err != nil {
			t.Fatal(err)
		}
		if aff.Score != ref.Score {
			t.Fatalf("pair %d: affine(open=0) %d != linear %d", i, aff.Score, ref.Score)
		}
	}
}

// TestExtendSeedAffineBounds mirrors the linear path's overflow-safe seed
// validation.
func TestExtendSeedAffineBounds(t *testing.T) {
	s := seq.MustNew("ACGTACGT")
	sc := AffineScoring{Match: 1, Mismatch: -1, GapOpen: -2, GapExtend: -1}
	for _, tc := range [][3]int{{7, 0, 4}, {0, 7, 4}, {-1, 0, 4}, {0, 0, 0}, {math.MaxInt, 0, 4}} {
		if _, err := extendSeedScalar(s, s, tc[0], tc[1], tc[2], AffineScheme(sc), 10); err == nil {
			t.Fatalf("seed %v accepted", tc)
		}
	}
	if _, err := extendSeedScalar(s, s, 0, 0, 4, AffineScheme(AffineScoring{}), 10); err == nil {
		t.Fatal("invalid scheme accepted")
	}
}

// TestPoolSchemeBatchesMatchOracles: the pooled batch path must be
// bit-identical to the single-pair oracles for every scheme family, on
// the same shared pool.
func TestPoolSchemeBatchesMatchOracles(t *testing.T) {
	pairs := schemePairs(t, 32)
	results := make([]SeedResult, len(pairs))
	p := NewPool(3)
	defer p.Close()
	const x = 40

	aff := AffineScoring{Match: 1, Mismatch: -1, GapOpen: -3, GapExtend: -1}
	if _, err := p.ExtendBatchScheme(context.Background(), pairs, results, AffineScheme(aff), x); err != nil {
		t.Fatal(err)
	}
	for i, pr := range pairs {
		want, err := extendSeedScalar(pr.Query, pr.Target, pr.SeedQPos, pr.SeedTPos, pr.SeedLen, AffineScheme(aff), x)
		if err != nil {
			t.Fatal(err)
		}
		if results[i] != want {
			t.Fatalf("affine pair %d: pooled %+v != oracle %+v", i, results[i], want)
		}
		// The seed's extensions are plain extensions over the reversed
		// prefixes and over the suffixes.
		left := extendScalar(pr.Query[:pr.SeedQPos].Reverse(), pr.Target[:pr.SeedTPos].Reverse(), AffineScheme(aff), x)
		right := extendScalar(pr.Query[pr.SeedQPos+pr.SeedLen:], pr.Target[pr.SeedTPos+pr.SeedLen:], AffineScheme(aff), x)
		if want := left.Score + right.Score + int32(pr.SeedLen)*aff.Match; results[i].Score != want {
			t.Fatalf("affine pair %d: pooled score %d != extension composition %d", i, results[i].Score, want)
		}
	}

	m := Blosum62(-6) // DNA letters are all in the amino alphabet
	if _, err := p.ExtendBatchScheme(context.Background(), pairs, results, MatrixScheme(m), x); err != nil {
		t.Fatal(err)
	}
	for i, pr := range pairs {
		want, err := extendSeedScalar(pr.Query, pr.Target, pr.SeedQPos, pr.SeedTPos, pr.SeedLen, MatrixScheme(m), x)
		if err != nil {
			t.Fatal(err)
		}
		if results[i] != want {
			t.Fatalf("matrix pair %d: pooled %+v != oracle %+v", i, results[i], want)
		}
	}

	// The linear batch runs the vector kernel (SelectKernel): once per row
	// variant, flipped while the pool is idle.
	lin := DefaultScoring()
	forEachISA(t, func(t *testing.T) {
		if _, err := p.ExtendBatchScheme(context.Background(), pairs, results, LinearScheme(lin), x); err != nil {
			t.Fatal(err)
		}
		for i, pr := range pairs {
			want, err := ExtendSeed(pr.Query, pr.Target, pr.SeedQPos, pr.SeedTPos, pr.SeedLen, lin, x)
			if err != nil {
				t.Fatal(err)
			}
			if results[i] != want {
				t.Fatalf("linear pair %d: pooled %+v != oracle %+v", i, results[i], want)
			}
		}
	})
}

// TestPoolContextCanceled: a canceled context fails the batch with the
// context's error, before or during execution.
func TestPoolContextCanceled(t *testing.T) {
	pairs := schemePairs(t, 8)
	results := make([]SeedResult, len(pairs))
	p := NewPool(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.ExtendBatchScheme(ctx, pairs, results, LinearScheme(DefaultScoring()), 30)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
}
