package logan

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"logan/internal/seq"
)

// benchCoalescer compares the two ways 64 concurrent 16-pair requests can
// reach the engine: each request as its own batch (the pre-coalescer serve
// path), or merged into engine-sized batches by a Coalescer. The hybrid
// backend makes the per-batch cost visible: every independent batch pays
// its own partition, staging and shard dispatch, which a 16-pair batch
// cannot amortize.
func benchCoalescer(b *testing.B, coalesce bool) {
	cfg := DefaultConfig(50)
	eng, err := NewAligner(EngineOptions{Backend: Hybrid, GPUs: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()

	const clients, pairsPer = 64, 16
	var coal *Coalescer
	if coalesce {
		coal = eng.NewCoalescer(CoalescerOptions{MaxBatchPairs: 512})
		defer coal.Close()
	}
	// Short pairs: the request shape where per-batch overhead, not DP
	// work, bounds serve throughput — the regime coalescing targets.
	rng := rand.New(rand.NewSource(11))
	raw := seq.RandPairSet(rng, seq.PairSetOptions{
		N: pairsPer, MinLen: 40, MaxLen: 80, ErrorRate: 0.15, SeedLen: 17,
	})
	pairs := make([]Pair, pairsPer)
	for i, p := range raw {
		pairs[i] = Pair{Query: []byte(p.Query), Target: []byte(p.Target),
			SeedQ: p.SeedQPos, SeedT: p.SeedTPos, SeedLen: p.SeedLen}
	}

	// Warm the engine before timing: the hybrid scheduler's throughput
	// estimates converge over the first batches, and the staging pools
	// grow to steady-state size.
	warm := make([]Pair, 0, 512+pairsPer)
	for len(warm) < 512 {
		warm = append(warm, pairs...)
	}
	warm = warm[:512]
	for i := 0; i < 8; i++ {
		if _, _, err := eng.Align(context.Background(), warm, cfg); err != nil {
			b.Fatal(err)
		}
	}

	b.SetParallelism((clients + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			var err error
			if coalesce {
				_, _, err = coal.Align(context.Background(), pairs, cfg)
			} else {
				_, _, err = eng.Align(context.Background(), pairs, cfg)
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N*pairsPer)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkCoalescerOff: 64 concurrent 16-pair engine batches.
func BenchmarkCoalescerOff(b *testing.B) { benchCoalescer(b, false) }

// BenchmarkCoalescerOn: the same traffic merged by a Coalescer.
func BenchmarkCoalescerOn(b *testing.B) { benchCoalescer(b, true) }
