package bella

import (
	"context"
	"math/rand"
	"testing"

	"logan/internal/genome"
)

func benchReadSet(b *testing.B) genome.ReadSet {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	g := genome.Synthetic(rng, "bench", genome.SyntheticOptions{Length: 60000})
	return genome.Simulate(rng, g, genome.SimOptions{
		Coverage: 4, MinLen: 800, MaxLen: 1600, ErrorRate: 0.12,
	})
}

// benchBases times fn, which consumes rs once per call: bytes per op are
// the bases of rs (so MB/s reads as Mbases/s, reported under that name
// too) and allocations are reported.
func benchBases(b *testing.B, rs genome.ReadSet, fn func()) {
	bases := 0
	for _, r := range rs.Reads {
		bases += len(r.Seq)
	}
	b.SetBytes(int64(bases))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.ReportMetric(float64(bases)*float64(b.N)/1e6/b.Elapsed().Seconds(), "Mbases/s")
}

// BenchmarkKmerCount measures the counting stage.
func BenchmarkKmerCount(b *testing.B) {
	rs := benchReadSet(b)
	benchBases(b, rs, func() { CountKmers(rs.Reads, 17, 0) })
}

// BenchmarkSpGEMM measures overlap detection (matrix build + multiply).
func BenchmarkSpGEMM(b *testing.B) {
	rs := benchReadSet(b)
	idx := CountKmers(rs.Reads, 17, 0)
	lo, hi := ReliableBounds(4, 0.12, 17, 1e-3)
	rel := idx.Reliable(lo, hi)
	benchBases(b, rs, func() {
		mat := BuildMatrix(rs.Reads, 17, rel)
		cands := mat.SpGEMM(SpGEMMOptions{MaxSeedsPerPair: 16, MinShared: 1})
		if len(cands) == 0 {
			b.Fatal("no candidates")
		}
	})
}

// BenchmarkPrepare measures the whole overlap-detection front end (stages
// 1-5: count, prune, matrix, SpGEMM, binning).
func BenchmarkPrepare(b *testing.B) {
	rs := benchReadSet(b)
	cfg := DefaultConfig(4, 0.12, 25)
	benchBases(b, rs, func() {
		prep, err := Prepare(context.Background(), rs, cfg)
		if err != nil || len(prep.Pairs) == 0 {
			b.Fatalf("prepare: %d pairs, err %v", len(prep.Pairs), err)
		}
	})
}

// BenchmarkPipelineCPU measures the whole pipeline with the SeqAn-style
// aligner — BELLA's 90%-alignment-time profile shows up here.
func BenchmarkPipelineCPU(b *testing.B) {
	rs := benchReadSet(b)
	cfg := DefaultConfig(4, 0.12, 25)
	b.ResetTimer()
	var alignFrac float64
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), rs, cfg, CPUAligner{})
		if err != nil {
			b.Fatal(err)
		}
		alignFrac = res.Times.Alignment.Seconds() / res.Times.Total().Seconds()
	}
	b.ReportMetric(alignFrac, "align-frac")
}
