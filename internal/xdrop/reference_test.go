package xdrop

import (
	"math/rand"
	"testing"

	"logan/internal/seq"
)

// TestExtendMatchesReference differentially checks the sentinel-padded
// workspace kernel against the pre-engine implementation over a spread of
// lengths, error rates, X values and scoring schemes: every field of the
// result must be bit-identical.
func TestExtendMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := NewWorkspace()
	schemes := []Scoring{
		DefaultScoring(),
		{Match: 2, Mismatch: -3, Gap: -2},
		{Match: 5, Mismatch: -4, Gap: -11},
	}
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(120)
		n := 1 + rng.Intn(120)
		q := seq.RandSeq(rng, m)
		var tt seq.Seq
		if rng.Intn(2) == 0 {
			tt = seq.RandSeq(rng, n)
		} else {
			tt = seq.Mutate(rng, q, seq.UniformProfile(rng.Float64()*0.4))
		}
		sc := schemes[rng.Intn(len(schemes))]
		x := int32(rng.Intn(60))
		want := ExtendReference(q, tt, sc, x)
		got := w.Extend(q, tt, sc, x)
		if got != want {
			t.Fatalf("trial %d (m=%d n=%d x=%d sc=%+v):\n got %+v\nwant %+v",
				trial, m, len(tt), x, sc, got, want)
		}
	}
}

// TestPoolMatchesExtendBatch checks the persistent pool's batches against
// one-shot per-pair ExtendSeed, including reuse across batches.
func TestPoolMatchesExtendBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pairs := seq.RandPairSet(rng, seq.PairSetOptions{
		N: 40, MinLen: 80, MaxLen: 300, ErrorRate: 0.2, SeedLen: 13,
	})
	sc := DefaultScoring()
	want := make([]SeedResult, len(pairs))
	wantStats := BatchStats{Kernel: SelectKernel(LinearScheme(sc), 50)}
	for i, pr := range pairs {
		r, err := ExtendSeed(pr.Query, pr.Target, pr.SeedQPos, pr.SeedTPos, pr.SeedLen, sc, 50)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
		wantStats.Accumulate(r)
	}
	p := NewPool(3)
	defer p.Close()
	results := make([]SeedResult, len(pairs))
	for rep := 0; rep < 3; rep++ {
		stats, err := p.ExtendBatch(pairs, results, sc, 50)
		if err != nil {
			t.Fatal(err)
		}
		if stats != wantStats {
			t.Fatalf("rep %d: stats %+v != %+v", rep, stats, wantStats)
		}
		for i := range want {
			if results[i] != want[i] {
				t.Fatalf("rep %d pair %d: %+v != %+v", rep, i, results[i], want[i])
			}
		}
	}
}

// TestPoolReportsLowestErrorIndex checks the deterministic error choice.
func TestPoolReportsLowestErrorIndex(t *testing.T) {
	good := seq.MustNew("ACGTACGTACGT")
	pairs := []seq.Pair{
		{Query: good, Target: good, SeedQPos: 0, SeedTPos: 0, SeedLen: 4},
		{Query: good, Target: good, SeedQPos: 99, SeedTPos: 0, SeedLen: 4},
		{Query: good, Target: good, SeedQPos: 0, SeedTPos: 99, SeedLen: 4},
	}
	p := NewPool(2)
	defer p.Close()
	results := make([]SeedResult, len(pairs))
	if _, err := p.ExtendBatch(pairs, results, DefaultScoring(), 10); err == nil {
		t.Fatal("pool accepted out-of-range seeds")
	}
}

// TestPoolEmptyBatch checks the zero-work fast path.
func TestPoolEmptyBatch(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	if stats, err := p.ExtendBatch(nil, nil, DefaultScoring(), 10); err != nil || stats != (BatchStats{}) {
		t.Fatalf("empty batch: %+v %v", stats, err)
	}
}

// TestPoolClosedSubmit checks that batches after Close fail cleanly
// instead of panicking, and that Close is idempotent.
func TestPoolClosedSubmit(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close()
	good := seq.MustNew("ACGTACGT")
	pairs := []seq.Pair{{Query: good, Target: good, SeedQPos: 0, SeedTPos: 0, SeedLen: 4}}
	if _, err := p.ExtendBatch(pairs, make([]SeedResult, 1), DefaultScoring(), 10); err != ErrPoolClosed {
		t.Fatalf("submit after close: %v", err)
	}
}
