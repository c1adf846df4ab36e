package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"logan/internal/cuda"
	"logan/internal/seq"
	"logan/internal/xdrop"
)

// TestGPUEquivalenceRandomScoring is the strongest equivalence property:
// for arbitrary valid scoring schemes, X values, lengths and error rates,
// the simulated-GPU kernel must match the serial reference exactly.
func TestGPUEquivalenceRandomScoring(t *testing.T) {
	dev := cuda.MustV100()
	pool := xdrop.NewPool(1)
	defer pool.Close()
	f := func(seed int64, matchRaw, misRaw, gapRaw, xRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sc := xdrop.Scoring{
			Match:    int32(matchRaw%4) + 1,
			Mismatch: -(int32(misRaw%4) + 1),
			Gap:      -(int32(gapRaw%4) + 1),
		}
		x := int32(xRaw)
		u := uint64(seed)
		pairs := seq.RandPairSet(rng, seq.PairSetOptions{
			N: 3, MinLen: 40, MaxLen: 250,
			ErrorRate: float64(u%30) / 100, SeedLen: 9,
			SeedPosFrac: 0.1 + float64(u%80)/100,
		})
		cfg := Config{Scoring: sc, X: x}
		gpu, err := AlignBatch(dev, pairs, cfg)
		if err != nil {
			return false
		}
		cpu := make([]xdrop.SeedResult, len(pairs))
		if _, err := pool.ExtendBatch(pairs, cpu, sc, x); err != nil {
			return false
		}
		for i := range pairs {
			g, c := gpu.Results[i], cpu[i]
			if g.Score != c.Score || g.QEnd != c.QEnd || g.TEnd != c.TEnd ||
				g.Cells() != c.Cells() || g.Left.AntiDiags != c.Left.AntiDiags {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestGPUEquivalenceExtremeShapes covers the degenerate geometries:
// seeds flush against either end, single-base extensions, and wildly
// asymmetric pair lengths.
func TestGPUEquivalenceExtremeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dev := cuda.MustV100()
	sc := xdrop.DefaultScoring()
	mk := func(qLen, tLen, qPos, tPos, seedLen int) seq.Pair {
		q := seq.RandSeq(rng, qLen)
		tt := seq.RandSeq(rng, tLen)
		copy(tt[tPos:tPos+seedLen], q[qPos:qPos+seedLen])
		return seq.Pair{Query: q, Target: tt, SeedQPos: qPos, SeedTPos: tPos, SeedLen: seedLen}
	}
	pairs := []seq.Pair{
		mk(100, 100, 0, 0, 10),    // seed at both starts
		mk(100, 100, 90, 90, 10),  // seed at both ends
		mk(100, 100, 0, 90, 10),   // opposite corners
		mk(11, 2000, 0, 1000, 11), // whole query is the seed
		mk(2000, 12, 1000, 0, 12), // whole target is the seed
		mk(1500, 30, 700, 10, 15), // extreme asymmetry
	}
	for _, x := range []int32{0, 1, 7, 100} {
		gpu, err := AlignBatch(dev, pairs, Config{Scoring: sc, X: x})
		if err != nil {
			t.Fatalf("X=%d: %v", x, err)
		}
		cpu := cpuResults(t, pairs, sc, x)
		for i := range pairs {
			if gpu.Results[i].Score != cpu[i].Score {
				t.Fatalf("X=%d pair %d: gpu %d != cpu %d", x, i, gpu.Results[i].Score, cpu[i].Score)
			}
			if gpu.Results[i].QBegin != cpu[i].QBegin || gpu.Results[i].TEnd != cpu[i].TEnd {
				t.Fatalf("X=%d pair %d: extents differ", x, i)
			}
		}
	}
}

// TestAblationVariantsPreserveScores: the design-ablation switches change
// only the execution accounting, never the algorithm.
func TestAblationVariantsPreserveScores(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pairs := seq.RandPairSet(rng, seq.PairSetOptions{
		N: 12, MinLen: 150, MaxLen: 500, ErrorRate: 0.15, SeedLen: 17, SeedPosFrac: 0.5,
	})
	dev := cuda.MustV100()
	base, err := AlignBatch(dev, pairs, DefaultConfig(60))
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []func(*Config){
		func(c *Config) { c.SharedMemAntidiags = true },
		func(c *Config) { c.NoQueryReversal = true },
		func(c *Config) { c.ThreadsPerBlock = 1024 },
		func(c *Config) { c.ThreadsPerBlock = 32 },
	} {
		cfg := DefaultConfig(60)
		variant(&cfg)
		res, err := AlignBatch(dev, pairs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pairs {
			if res.Results[i].Score != base.Results[i].Score {
				t.Fatalf("variant %+v changed score at pair %d", cfg, i)
			}
		}
	}
	// The shared-memory variant must actually reduce DRAM-bound reuse
	// traffic and collapse occupancy.
	cfg := DefaultConfig(60)
	cfg.SharedMemAntidiags = true
	shared, err := AlignBatch(dev, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if shared.Stats.ReuseReadBytes >= base.Stats.ReuseReadBytes {
		t.Fatal("shared-memory variant did not reduce global reuse traffic")
	}
	if shared.Stats.Occupancy.BlocksPerSM >= base.Stats.Occupancy.BlocksPerSM {
		t.Fatalf("shared-memory occupancy %d not below HBM variant %d",
			shared.Stats.Occupancy.BlocksPerSM, base.Stats.Occupancy.BlocksPerSM)
	}
	// The no-reversal variant must inflate streaming traffic.
	cfg = DefaultConfig(60)
	cfg.NoQueryReversal = true
	norev, err := AlignBatch(dev, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if norev.Stats.StreamReadBytes <= base.Stats.StreamReadBytes {
		t.Fatal("uncoalesced variant did not inflate streaming traffic")
	}
}
