package core

import (
	"math/rand"
	"testing"

	"logan/internal/cuda"
	"logan/internal/perfmodel"
	"logan/internal/seq"
	"logan/internal/xdrop"
)

func testPairs(t *testing.T, n, minLen, maxLen int, seed int64) []seq.Pair {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return seq.RandPairSet(rng, seq.PairSetOptions{
		N: n, MinLen: minLen, MaxLen: maxLen, ErrorRate: 0.15, SeedLen: 17, FracRelated: 0.8,
	})
}

// cpuResults is the CPU pool's answer for pairs, the reference every
// device result is compared against.
func cpuResults(t *testing.T, pairs []seq.Pair, sc xdrop.Scoring, x int32) []xdrop.SeedResult {
	t.Helper()
	p := xdrop.NewPool(0)
	defer p.Close()
	out := make([]xdrop.SeedResult, len(pairs))
	if _, err := p.ExtendBatch(pairs, out, sc, x); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGPUMatchesSerialXdrop is the reproduction's core correctness claim:
// the simulated-GPU kernel produces bit-identical scores, end positions and
// cell counts to the serial SeqAn-style reference on the same pairs, for
// every X (paper: "equivalent accuracy").
func TestGPUMatchesSerialXdrop(t *testing.T) {
	pairs := testPairs(t, 40, 150, 600, 1)
	dev := cuda.MustV100()
	for _, x := range []int32{0, 5, 20, 100, 1000} {
		cfg := DefaultConfig(x)
		got, err := AlignBatch(dev, pairs, cfg)
		if err != nil {
			t.Fatalf("X=%d: %v", x, err)
		}
		want := cpuResults(t, pairs, cfg.Scoring, x)
		for i := range pairs {
			g, w := got.Results[i], want[i]
			if g.Score != w.Score {
				t.Fatalf("X=%d pair %d: gpu score %d != cpu %d", x, i, g.Score, w.Score)
			}
			if g.QBegin != w.QBegin || g.QEnd != w.QEnd || g.TBegin != w.TBegin || g.TEnd != w.TEnd {
				t.Fatalf("X=%d pair %d: extents gpu [%d,%d)x[%d,%d) != cpu [%d,%d)x[%d,%d)",
					x, i, g.QBegin, g.QEnd, g.TBegin, g.TEnd, w.QBegin, w.QEnd, w.TBegin, w.TEnd)
			}
			if g.Cells() != w.Cells() {
				t.Fatalf("X=%d pair %d: gpu cells %d != cpu %d", x, i, g.Cells(), w.Cells())
			}
			if g.Left.MaxBand != w.Left.MaxBand || g.Right.MaxBand != w.Right.MaxBand {
				t.Fatalf("X=%d pair %d: band stats diverge", x, i)
			}
		}
	}
}

func TestThreadsForX(t *testing.T) {
	cases := map[int32]int{1: 32, 10: 32, 100: 128, 128: 128, 129: 160, 500: 512, 1000: 1024, 5000: 1024}
	for x, want := range cases {
		if got := ThreadsForX(x); got != want {
			t.Errorf("ThreadsForX(%d) = %d, want %d", x, got, want)
		}
		if got := ThreadsForX(x); got%32 != 0 {
			t.Errorf("ThreadsForX(%d) = %d not warp-aligned", x, got)
		}
	}
}

func TestBandAlloc(t *testing.T) {
	if got := BandAlloc(100, 10000); got != 203+BandSlack {
		t.Errorf("BandAlloc(100) = %d, want %d", got, 203+BandSlack)
	}
	if got := BandAlloc(5000, 300); got != 302 {
		t.Errorf("BandAlloc capped by sequence = %d, want 302", got)
	}
	if got := BandAlloc(0, 0); got < 4 {
		t.Errorf("BandAlloc floor = %d", got)
	}
}

func TestAlignBatchValidation(t *testing.T) {
	dev := cuda.MustV100()
	if _, err := AlignBatch(dev, nil, DefaultConfig(10)); err != nil {
		t.Fatalf("empty batch errored: %v", err)
	}
	bad := []seq.Pair{{Query: seq.MustNew("ACGT"), Target: seq.MustNew("ACGT"), SeedQPos: 2, SeedTPos: 0, SeedLen: 4}}
	if _, err := AlignBatch(dev, bad, DefaultConfig(10)); err == nil {
		t.Fatal("accepted out-of-range seed")
	}
	cfg := DefaultConfig(10)
	cfg.Scoring.Match = 0
	if _, err := AlignBatch(dev, testPairs(t, 1, 50, 60, 3), cfg); err == nil {
		t.Fatal("accepted invalid scoring")
	}
	if _, err := AlignBatch(dev, testPairs(t, 1, 50, 60, 3), Config{Scoring: xdrop.DefaultScoring(), X: -1}); err == nil {
		t.Fatal("accepted negative X")
	}
}

func TestMemoryChunking(t *testing.T) {
	// Shrink HBM so the batch cannot fit at once; results must still be
	// identical and the chunk count > 1.
	pairs := testPairs(t, 24, 200, 400, 4)
	spec := cuda.TeslaV100()
	spec.HBMBytes = 48 << 10 // 48 KB forces several chunks
	dev, err := cuda.NewDevice(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AlignBatch(dev, pairs, DefaultConfig(50))
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks < 2 {
		t.Fatalf("expected multiple chunks, got %d", res.Chunks)
	}
	want := cpuResults(t, pairs, xdrop.DefaultScoring(), 50)
	for i := range pairs {
		if res.Results[i].Score != want[i].Score {
			t.Fatalf("chunked pair %d: %d != %d", i, res.Results[i].Score, want[i].Score)
		}
	}
	if dev.Allocated() != 0 {
		t.Fatalf("leaked %d bytes of device memory", dev.Allocated())
	}
}

func TestMemoryTooSmall(t *testing.T) {
	spec := cuda.TeslaV100()
	spec.HBMBytes = 1 << 10
	dev, _ := cuda.NewDevice(spec)
	if _, err := AlignBatch(dev, testPairs(t, 2, 300, 400, 5), DefaultConfig(100)); err == nil {
		t.Fatal("expected failure when a single pair cannot fit")
	}
}

func TestDeviceTimeAndStats(t *testing.T) {
	pairs := testPairs(t, 16, 150, 400, 6)
	dev := cuda.MustV100()
	dev.Timer = perfmodel.NewV100Timer()
	res, err := AlignBatch(dev, pairs, DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.DeviceTime <= 0 {
		t.Fatal("modeled device time is zero with a timer installed")
	}
	if res.Launches != 2 || res.Chunks != 1 {
		t.Fatalf("launches=%d chunks=%d, want 2/1", res.Launches, res.Chunks)
	}
	if res.Stats.WarpInstrs == 0 || res.Stats.Reductions == 0 || res.Stats.Iterations == 0 {
		t.Fatalf("kernel stats incomplete: %+v", res.Stats)
	}
	if res.TransferBytes == 0 {
		t.Fatal("no transfer bytes accounted")
	}
	if res.Cells == 0 {
		t.Fatal("no cells accounted")
	}
	// Warp fill should be meaningfully below 1 at X=100 (band narrower
	// than a full warp multiple at the edges).
	if f := res.Stats.Iter.SumNopFill / res.Stats.Iter.SumNop; f <= 0 || f > 1 {
		t.Fatalf("warp fill %v outside (0,1]", f)
	}
}

func TestSchedulingEffectOnStats(t *testing.T) {
	// Oversized blocks must not change results but should waste issue
	// slots (lower lane utilization == same lane ops, same warp instrs?
	// no: more threads per segment means fewer segments but same ceil
	// behaviour; the observable contract is identical results).
	pairs := testPairs(t, 8, 150, 300, 7)
	dev := cuda.MustV100()
	cfgAuto := DefaultConfig(20)
	cfgBig := DefaultConfig(20)
	cfgBig.ThreadsPerBlock = 1024
	a, err := AlignBatch(dev, pairs, cfgAuto)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AlignBatch(dev, pairs, cfgBig)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		if a.Results[i].Score != b.Results[i].Score {
			t.Fatalf("thread count changed scores at pair %d", i)
		}
	}
	if a.Stats.Block != ThreadsForX(20) || b.Stats.Block != 1024 {
		t.Fatalf("block sizes: %d, %d", a.Stats.Block, b.Stats.Block)
	}
}

func TestUnrelatedPairsTerminateCheaply(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	unrelated := seq.RandPairSet(rng, seq.PairSetOptions{
		N: 10, MinLen: 2000, MaxLen: 3000, ErrorRate: 0, SeedLen: 17, FracRelated: 0.001,
	})
	related := seq.RandPairSet(rng, seq.PairSetOptions{
		N: 10, MinLen: 2000, MaxLen: 3000, ErrorRate: 0.15, SeedLen: 17,
	})
	dev := cuda.MustV100()
	// The paper's claim: spurious candidate pairs are eliminated without
	// paying the quadratic cost. Compare explored cells against the full
	// m*n matrices.
	ru, err := AlignBatch(dev, unrelated, DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	var full int64
	for _, p := range unrelated {
		full += int64(len(p.Query)) * int64(len(p.Target))
	}
	if ru.Cells > full/20 {
		t.Fatalf("unrelated pairs explored %d cells, want << %d (full matrices)", ru.Cells, full)
	}
	// Related pairs must reach deep into the matrix: their per-pair
	// anti-diagonal count should far exceed the unrelated pairs'.
	rr, err := AlignBatch(dev, related, DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	var ruDiags, rrDiags int64
	for i := range ru.Results {
		ruDiags += int64(ru.Results[i].Left.AntiDiags + ru.Results[i].Right.AntiDiags)
	}
	for i := range rr.Results {
		rrDiags += int64(rr.Results[i].Left.AntiDiags + rr.Results[i].Right.AntiDiags)
	}
	if rrDiags <= ruDiags {
		t.Fatalf("related pairs advanced %d anti-diagonals vs %d for unrelated; expected deeper progress", rrDiags, ruDiags)
	}
}

func BenchmarkAlignBatchGPU(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	pairs := seq.RandPairSet(rng, seq.PairSetOptions{N: 32, MinLen: 1000, MaxLen: 2000, ErrorRate: 0.15, SeedLen: 17})
	dev := cuda.MustV100()
	dev.Timer = perfmodel.NewV100Timer()
	cfg := DefaultConfig(100)
	b.ResetTimer()
	var cells int64
	for i := 0; i < b.N; i++ {
		res, err := AlignBatch(dev, pairs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cells += res.Cells
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds()/1e9, "hostGCUPS")
}
