package logan

// One benchmark per table and figure of the paper's evaluation. Each
// invokes the same runner as cmd/logan-bench at the reduced quick scale,
// so `go test -bench=.` regenerates every experiment; use
// `go run ./cmd/logan-bench` for the full default scale. Custom metrics
// report the reproduction's key quantities alongside ns/op.

import (
	"context"
	"testing"

	"logan/internal/bench"
	"logan/internal/perfmodel"
	"logan/internal/seq"
	"logan/internal/xdrop"
)

func benchScale() bench.Scale { return bench.QuickScale() }

// BenchmarkTableI regenerates the parallelism ablation (paper Table I).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTableI(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SpeedupIntra, "intra-speedup")
		b.ReportMetric(res.SpeedupInter, "inter-speedup")
	}
}

// BenchmarkTableII regenerates LOGAN vs SeqAn (paper Table II / Fig. 8).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTableII(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.Base/last.GPU1, "speedup-1gpu")
		b.ReportMetric(last.Base/last.GPUAll, "speedup-6gpu")
		b.ReportMetric(res.PeakGCUPS, "peakGCUPS")
	}
}

// BenchmarkTableIII regenerates LOGAN vs ksw2 (paper Table III / Fig. 9).
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTableIII(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.Base/last.GPU1, "speedup-1gpu")
		b.ReportMetric(last.Base/last.GPUAll, "speedup-8gpu")
	}
}

// BenchmarkTableIV regenerates BELLA E. coli (paper Table IV / Fig. 10).
func BenchmarkTableIV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTableIV(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.Base/last.GPU1, "speedup-1gpu")
		b.ReportMetric(float64(res.CrossoverX), "crossoverX")
	}
}

// BenchmarkTableV regenerates BELLA C. elegans (paper Table V / Fig. 11).
func BenchmarkTableV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTableV(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.Base/last.GPU1, "speedup-1gpu")
		b.ReportMetric(last.Base/last.GPUAll, "speedup-6gpu")
	}
}

// BenchmarkFig12 regenerates the GPU-comparator GCUPS scaling (Fig. 12).
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig12(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Logan[0], "logan-1gpu-GCUPS")
		b.ReportMetric(res.CUDASW[0], "cudasw-1gpu-GCUPS")
		b.ReportMetric(res.Manymap, "manymap-GCUPS")
	}
}

// BenchmarkFig13 regenerates the Roofline analysis (Fig. 13).
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig13(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Report.AchievedGIPS, "warpGIPS")
		b.ReportMetric(res.Report.OI, "OI")
		b.ReportMetric(res.Report.CeilingFraction, "ceiling-frac")
	}
}

// BenchmarkKernelCPU measures the real serial X-drop throughput on this
// host (the engine under every experiment).
func BenchmarkKernelCPU(b *testing.B) {
	scale := benchScale()
	pairs := scale.PairSet()
	sc := xdrop.DefaultScoring()
	pool := xdrop.NewPool(0)
	defer pool.Close()
	results := make([]xdrop.SeedResult, len(pairs))
	b.ResetTimer()
	var cells int64
	for i := 0; i < b.N; i++ {
		stats, err := pool.ExtendBatchScheme(context.Background(), pairs, results, xdrop.LinearScheme(sc), 100)
		if err != nil {
			b.Fatal(err)
		}
		cells += stats.Cells
	}
	b.ReportMetric(perfmodel.GCUPS(cells, b.Elapsed()), "hostGCUPS")
}

// BenchmarkKernelGPUBackend measures the public GPU-backend path end to
// end (simulation wall time, not modeled time).
func BenchmarkKernelGPUBackend(b *testing.B) {
	scale := benchScale()
	raw := scale.PairSet()
	pairs := make([]Pair, len(raw))
	for i, p := range raw {
		pairs[i] = Pair{Query: []byte(p.Query), Target: []byte(p.Target),
			SeedQ: p.SeedQPos, SeedT: p.SeedTPos, SeedLen: p.SeedLen}
	}
	eng, err := NewAligner(EngineOptions{Backend: GPU})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	cfg := DefaultConfig(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Align(context.Background(), pairs, cfg); err != nil {
			b.Fatal(err)
		}
	}
	_ = seq.Alphabet
}
