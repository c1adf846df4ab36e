package logan

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"logan/internal/seq"
	"logan/internal/xdrop"
)

// benchPairs builds the 10k-pair workload of the engine acceptance
// benchmark: read-scale fragments with a planted seed, BELLA-style.
func benchPairs(n int) []Pair {
	rng := rand.New(rand.NewSource(11))
	raw := seq.RandPairSet(rng, seq.PairSetOptions{
		N: n, MinLen: 200, MaxLen: 600, ErrorRate: 0.15, SeedLen: 17,
	})
	out := make([]Pair, n)
	for i, p := range raw {
		out[i] = Pair{Query: []byte(p.Query), Target: []byte(p.Target),
			SeedQ: p.SeedQPos, SeedT: p.SeedTPos, SeedLen: p.SeedLen}
	}
	return out
}

// BenchmarkAlignerReused10k is the engine path: one Aligner serving
// repeated 10k-pair batches with recycled result storage. Compare against
// BenchmarkSeedPerCall10k.
func BenchmarkAlignerReused10k(b *testing.B) {
	pairs := benchPairs(10000)
	cfg := DefaultConfig(100)
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	var dst []Alignment
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _, err = eng.AlignInto(context.Background(), dst, pairs, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeedPerCall10k replicates the pre-engine per-call path on the
// same workload: every batch re-validates and double-copies the sequences
// ([]byte -> string -> Seq) and spins up a fresh worker team, exactly as
// the original logan.Align did.
func BenchmarkSeedPerCall10k(b *testing.B) {
	pairs := benchPairs(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		in := make([]seq.Pair, len(pairs))
		for i, p := range pairs {
			q, err := seq.New(string(p.Query))
			if err != nil {
				b.Fatal(err)
			}
			t, err := seq.New(string(p.Target))
			if err != nil {
				b.Fatal(err)
			}
			in[i] = seq.Pair{Query: q, Target: t,
				SeedQPos: p.SeedQ, SeedTPos: p.SeedT, SeedLen: p.SeedLen, ID: i}
		}
		pool := xdrop.NewPool(0)
		results := make([]xdrop.SeedResult, len(in))
		_, err := pool.ExtendBatch(in, results, xdrop.DefaultScoring(), 100)
		pool.Close()
		if err != nil {
			b.Fatal(err)
		}
		out := make([]Alignment, len(results))
		var st Stats
		for i, r := range results {
			out[i] = toAlignment(r)
			st.Cells += r.Cells()
		}
		st.WallTime = time.Since(start)
		_ = fmt.Sprint(st.WallTime > 0)
	}
}

// BenchmarkBackends2k compares the execution backends on one 2k-pair
// batch through the same engine path: the CPU pool, single- and dual-GPU
// simulated devices, and the hybrid CPU+GPU scheduler.
func BenchmarkBackends2k(b *testing.B) {
	pairs := benchPairs(2000)
	for _, tc := range []struct {
		name    string
		backend Backend
		gpus    int
	}{
		{"cpu", CPU, 0},
		{"gpu1", GPU, 1},
		{"gpu2", GPU, 2},
		{"hybrid2", Hybrid, 2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := DefaultConfig(100)
			eng, err := NewAligner(EngineOptions{Backend: tc.backend, GPUs: tc.gpus})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			var dst []Alignment
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _, err = eng.AlignInto(context.Background(), dst, pairs, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
