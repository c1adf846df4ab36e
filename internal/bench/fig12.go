package bench

import (
	"fmt"

	"logan/internal/core"
	"logan/internal/cuda"
	"logan/internal/stats"
	"logan/internal/sw"
	"logan/internal/xdrop"
)

// HybridBoost is the extra throughput CUDASW++ gains in its default
// hybrid GPU+CPU-SIMD mode over GPU-only execution (its papers report the
// CPU SIMD path contributing roughly a third on balanced systems).
const HybridBoost = 1.35

// Fig12Result is the GPU-comparator GCUPS scaling data (paper Fig. 12).
type Fig12Result struct {
	GPUCounts []int
	Logan     []float64 // GCUPS per GPU count
	CUDASW    []float64 // GPU-only
	CUDASWHyb []float64 // hybrid GPU+SIMD
	Manymap   float64   // single-GPU (flat line)
	Table     stats.Table
	Fig       stats.Chart
}

// RunFig12 measures all three kernels on the same pair sample, scales to
// the 100K-pair workload, and models GCUPS across GPU counts. manymap is
// single-GPU software and plots flat, as in the paper.
func RunFig12(scale Scale) (Fig12Result, error) {
	var out Fig12Result
	pairs := scale.PairSet()
	f := scale.Factor()
	platform := SkylakeNode()
	sc := xdrop.DefaultScoring()

	// LOGAN at its GCUPS peak (X=5000, paper §VI-B).
	dev := cuda.MustV100()
	logan, err := core.AlignBatch(dev, pairs, core.DefaultConfig(5000))
	if err != nil {
		return out, err
	}
	// CUDASW++-like full SW and manymap-like banded kernels.
	cudaswDev := cuda.MustV100()
	cudasw, err := sw.CUDASWBatch(cudaswDev, pairs, sc, 128)
	if err != nil {
		return out, err
	}
	manyDev := cuda.MustV100()
	many, err := sw.ManymapBatch(manyDev, pairs, sc, 500, 128)
	if err != nil {
		return out, err
	}

	gcups := func(stats cuda.KernelStats, cells int64, transfer int64, g int, imb float64) float64 {
		t := platform.LoganTime(ScaleStats(stats, f), int64(float64(transfer)*f), scale.PaperPairs, g, imb)
		return float64(cells) * f / t.Seconds() / 1e9
	}

	tb := stats.Table{
		Title:   "Fig. 12 data: GPU pairwise-alignment comparison (GCUPS, Skylake + V100s)",
		Headers: []string{"GPUs", "LOGAN", "CUDASW++(GPU)", "CUDASW++(hybrid)", "manymap"},
	}
	transferSW := int64(totalBases(pairs))
	var gx []float64
	for _, g := range scale.GPUCounts {
		imb := MeasureImbalance(scale, g)
		lg := gcups(logan.Stats, logan.Cells, logan.TransferBytes, g, imb)
		cw := gcups(cudasw.Stats, cudasw.Cells, transferSW, g, imb)
		out.GPUCounts = append(out.GPUCounts, g)
		out.Logan = append(out.Logan, lg)
		out.CUDASW = append(out.CUDASW, cw)
		out.CUDASWHyb = append(out.CUDASWHyb, cw*HybridBoost)
		gx = append(gx, float64(g))
		if g == 1 {
			out.Manymap = gcups(many.Stats, many.Cells, transferSW, 1, 1)
		}
		tb.AddRow(g, lg, cw, cw*HybridBoost, out.Manymap)
	}
	tb.Notes = append(tb.Notes,
		fmt.Sprintf("paper levels: LOGAN ~%.0f GCUPS/GPU, CUDASW++ <=%.0f (GPU-only), manymap <=%.0f (1 GPU)",
			Fig12Paper.LoganGPU1, Fig12Paper.CUDASWMax, Fig12Paper.ManymapMax),
		"manymap is single-GPU software; its line is flat by construction")
	out.Table = tb

	flat := make([]float64, len(gx))
	for i := range flat {
		flat[i] = out.Manymap
	}
	hyb := append([]float64(nil), out.CUDASWHyb...)
	out.Fig = stats.Chart{
		Title: "Fig. 12: GCUPS vs GPU count", XLabel: "GPUs", YLabel: "GCUPS",
		Series: []stats.Series{
			{Name: "LOGAN", Marker: 'L', X: gx, Y: out.Logan},
			{Name: "CUDASW++ GPU-only", Marker: 'c', X: gx, Y: out.CUDASW},
			{Name: "CUDASW++ hybrid", Marker: 'C', X: gx, Y: hyb},
			{Name: "manymap (1 GPU)", Marker: 'm', X: gx, Y: flat},
		},
	}
	return out, nil
}
