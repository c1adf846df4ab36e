package bella

import (
	"context"
	"math/rand"
	"testing"
	"time"
	_ "unsafe" // for go:linkname

	"logan/internal/genome"
	"logan/internal/seq"
	"logan/internal/xdrop"
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

// BenchmarkExtendCandidates times the alignment stage's kernel alone on
// the overlap-job shape: every candidate pair of overlapJobReads(1..3)
// (5,244 pairs), seed-extended with the int16 kernel at x=25, BELLA's
// defaults otherwise, single-threaded, so the number is kernel time, not
// throughput. workspace runs the pairs one by one on one Workspace (the
// solo routine); pool1 runs them as one batch on a one-worker Pool, whose
// worker streams the extensions two at a time through the paired routine
// on AVX-512. Each reports the milliseconds of one pass over the three
// read sets and what one anti-diagonal costs, for the vector ISA this
// host runs; pool1 also the share of the anti-diagonals the paired
// routine computed.
func BenchmarkExtendCandidates(b *testing.B) {
	cfg := DefaultConfig(8, 0.15, 25)
	var pairs []seq.Pair
	for seed := int64(1); seed <= 3; seed++ {
		prep, err := Prepare(context.Background(), overlapJobReads(seed), cfg)
		if err != nil || len(prep.Pairs) == 0 {
			b.Fatalf("prepare seed %d: %d pairs, err %v", seed, len(prep.Pairs), err)
		}
		pairs = append(pairs, prep.Pairs...)
	}
	report := func(b *testing.B, diags int64) {
		ns := float64(b.Elapsed().Nanoseconds())
		b.ReportMetric(ns/1e6/float64(b.N), "ms")
		b.ReportMetric(ns/float64(diags), "ns/antidiag")
	}
	b.Run("workspace", func(b *testing.B) {
		w := xdrop.NewWorkspace()
		b.ReportAllocs()
		var diags int64
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				r, err := w.ExtendSeedKernel(p.Query, p.Target, p.SeedQPos, p.SeedTPos, p.SeedLen, cfg.Scoring, cfg.X, xdrop.KernelVector)
				if err != nil {
					b.Fatal(err)
				}
				diags += int64(r.Left.AntiDiags + r.Right.AntiDiags)
			}
		}
		report(b, diags)
		b.Logf("%d pairs on %s", len(pairs), xdrop.VectorISA())
	})
	b.Run("pool1", func(b *testing.B) {
		p := xdrop.NewPool(1)
		defer p.Close()
		results := make([]xdrop.SeedResult, len(pairs))
		sch := xdrop.LinearScheme(cfg.Scoring)
		b.ReportAllocs()
		var diags, computed int64
		for i := 0; i < b.N; i++ {
			st, err := p.ExtendBatchKernel(context.Background(), pairs, results, sch, cfg.X, xdrop.KernelVector)
			if err != nil {
				b.Fatal(err)
			}
			diags += st.AntiDiags
			for _, r := range results {
				computed += int64(max(r.Left.AntiDiags-1, 0) + max(r.Right.AntiDiags-1, 0))
			}
		}
		report(b, diags)
		_, paired := poolRegRows(p)
		b.ReportMetric(float64(paired)/float64(computed), "paired")
	})
}

// poolRegRows is xdrop's count, over a Pool's workers, of the
// anti-diagonals its AVX-512 routines computed in registers and, of
// those, in the paired routine. It is read through a linkname so that the
// kernel's counters stay out of xdrop's API.
//
//go:linkname poolRegRows logan/internal/xdrop.poolRegRows
func poolRegRows(p *xdrop.Pool) (rows, paired int)

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
