package bella

import (
	"context"
	"math/rand"
	"testing"
	"time"

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

// overlapJobReads is one read set of the overlap-job workload's shape: an
// 80 kbp genome with 5 % of it in repeats, read at 8x coverage in 1.5-4.5
// kb reads with 15 % error.
func overlapJobReads(seed int64) genome.ReadSet {
	rng := rand.New(rand.NewSource(seed))
	g := genome.Synthetic(rng, "job", genome.SyntheticOptions{Length: 80_000, RepeatFrac: 0.05})
	return genome.Simulate(rng, g, genome.SimOptions{Coverage: 8, MinLen: 1500, MaxLen: 4500, ErrorRate: 0.15})
}

// BenchmarkPrepare measures the overlap-detection front end (stages 1-5)
// on one overlap-job-shaped read set at BELLA's defaults, and reports the
// mean milliseconds of each stage and of the k-mer pass (count + prune +
// matrix) as front-ms. Prepare runs on GOMAXPROCS workers: compare at
// -cpu 1,2.
func BenchmarkPrepare(b *testing.B) {
	rs := overlapJobReads(1)
	cfg := DefaultConfig(8, 0.15, 25)
	var sum StageTimes
	benchBases(b, rs, func() {
		prep, err := Prepare(context.Background(), rs, cfg)
		if err != nil || len(prep.Pairs) == 0 {
			b.Fatalf("prepare: %d pairs, err %v", len(prep.Pairs), err)
		}
		t := prep.Times
		sum.Count, sum.Prune, sum.Matrix = sum.Count+t.Count, sum.Prune+t.Prune, sum.Matrix+t.Matrix
		sum.SpGEMM, sum.Binning = sum.SpGEMM+t.SpGEMM, sum.Binning+t.Binning
	})
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
	b.ReportMetric(ms(sum.Count), "count-ms")
	b.ReportMetric(ms(sum.Prune), "prune-ms")
	b.ReportMetric(ms(sum.Matrix), "matrix-ms")
	b.ReportMetric(ms(sum.Count+sum.Prune+sum.Matrix), "front-ms")
	b.ReportMetric(ms(sum.SpGEMM), "spgemm-ms")
	b.ReportMetric(ms(sum.Binning), "binning-ms")
}

// BenchmarkPipelineCPU measures the whole pipeline with the SeqAn-style
// CPU baseline — BELLA's 90%-alignment-time profile shows up here.
func BenchmarkPipelineCPU(b *testing.B) {
	rs := benchReadSet(b)
	cfg := DefaultConfig(4, 0.12, 25)
	extend := cpuExtend(b)
	b.ResetTimer()
	var alignFrac float64
	for i := 0; i < b.N; i++ {
		res, err := Run(context.Background(), rs, cfg, extend)
		if err != nil {
			b.Fatal(err)
		}
		alignFrac = res.Times.Alignment.Seconds() / res.Times.Total().Seconds()
	}
	b.ReportMetric(alignFrac, "align-frac")
}
