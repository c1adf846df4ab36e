package logan

import (
	"math/rand"
	"testing"

	"logan/internal/seq"
)

// alignPair runs a one-pair batch under the paper's scheme on a CPU
// engine: the one-shot shape the retired package-level AlignPair had.
func alignPair(t *testing.T, query, target []byte, seedQ, seedT, seedLen int, x int32) (Alignment, error) {
	t.Helper()
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pair := Pair{Query: query, Target: target, SeedQ: seedQ, SeedT: seedT, SeedLen: seedLen}
	out, _, err := eng.Align(ctxb, []Pair{pair}, DefaultConfig(x))
	if err != nil {
		return Alignment{}, err
	}
	return out[0], nil
}

func TestAlignPairIdentical(t *testing.T) {
	s := []byte("ACGTACGTACGTACGTACGT")
	a, err := alignPair(t, s, s, 0, 0, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != int32(len(s)) {
		t.Fatalf("score = %d, want %d", a.Score, len(s))
	}
	if a.QBegin != 0 || a.QEnd != len(s) || a.TBegin != 0 || a.TEnd != len(s) {
		t.Fatalf("extents %+v", a)
	}
}

func TestAlignPairValidation(t *testing.T) {
	if _, err := alignPair(t, []byte("ACGX"), []byte("ACGT"), 0, 0, 2, 10); err == nil {
		t.Error("accepted invalid query base")
	}
	if _, err := alignPair(t, []byte("ACGT"), []byte("AC!T"), 0, 0, 2, 10); err == nil {
		t.Error("accepted invalid target base")
	}
	if _, err := alignPair(t, []byte("ACGT"), []byte("ACGT"), 3, 0, 4, 10); err == nil {
		t.Error("accepted out-of-range seed")
	}
}

func makePairs(n int) []Pair {
	rng := rand.New(rand.NewSource(7))
	raw := seq.RandPairSet(rng, seq.PairSetOptions{
		N: n, MinLen: 200, MaxLen: 600, ErrorRate: 0.15, SeedLen: 17,
	})
	out := make([]Pair, n)
	for i, p := range raw {
		out[i] = Pair{
			Query: []byte(p.Query), Target: []byte(p.Target),
			SeedQ: p.SeedQPos, SeedT: p.SeedTPos, SeedLen: p.SeedLen,
		}
	}
	return out
}

func TestAlignBackendsAgree(t *testing.T) {
	pairs := makePairs(24)
	cfg := DefaultConfig(50)
	stats := map[Backend]Stats{}
	outs := map[Backend][]Alignment{}
	for _, b := range []Backend{CPU, GPU} {
		eng, err := NewAligner(EngineOptions{Backend: b, GPUs: 2})
		if err != nil {
			t.Fatal(err)
		}
		outs[b], stats[b], err = eng.Align(ctxb, pairs, cfg)
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range pairs {
		if outs[CPU][i] != outs[GPU][i] {
			t.Fatalf("pair %d: cpu %+v != gpu %+v", i, outs[CPU][i], outs[GPU][i])
		}
	}
	if stats[CPU].Cells != stats[GPU].Cells {
		t.Fatalf("cells: cpu %d, gpu %d", stats[CPU].Cells, stats[GPU].Cells)
	}
	if stats[GPU].DeviceTime <= 0 {
		t.Fatal("GPU backend reported no modeled device time")
	}
	if stats[CPU].GCUPS <= 0 || stats[GPU].GCUPS <= 0 {
		t.Fatal("GCUPS not reported")
	}
}

func TestAlignEmptyBatch(t *testing.T) {
	for _, b := range []Backend{CPU, GPU, Hybrid} {
		eng, err := NewAligner(EngineOptions{Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		out, stats, err := eng.Align(ctxb, nil, DefaultConfig(10))
		eng.Close()
		if err != nil || len(out) != 0 || stats.Pairs != 0 {
			t.Fatalf("backend %v, empty batch: %v %v %v", b, out, stats, err)
		}
	}
}

func TestAlignScoreMeaning(t *testing.T) {
	// A mutated pair must score below the identical pair but well above
	// zero at moderate X.
	rng := rand.New(rand.NewSource(8))
	base := seq.RandSeq(rng, 500)
	mut := seq.Mutate(rng, base, seq.UniformProfile(0.1))
	// Plant the seed.
	copy(mut[250:267], base[250:267])
	a, err := alignPair(t, base, mut, 250, 250, 17, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score <= 17 || a.Score > 500 {
		t.Fatalf("mutated score = %d", a.Score)
	}
	ident, err := alignPair(t, base, base, 250, 250, 17, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score >= ident.Score {
		t.Fatalf("mutated %d >= identical %d", a.Score, ident.Score)
	}
}
