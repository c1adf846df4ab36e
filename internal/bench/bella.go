package bench

import (
	"context"
	"fmt"
	"math/rand"

	"logan/internal/backend"
	"logan/internal/bella"
	"logan/internal/core"
	"logan/internal/cuda"
	"logan/internal/genome"
	"logan/internal/stats"
	"logan/internal/xdrop"
)

// BellaResult is the outcome of a Table IV or V reproduction, with the
// companion speed-up figure (Fig. 10 / Fig. 11).
type BellaResult struct {
	Rows       []Timing3
	Table      stats.Table
	Fig        stats.Chart
	Accuracy   bella.Accuracy // overlap quality of the scaled run (CPU backend)
	CrossoverX int32          // first X where the GPU pipeline wins (paper: ~10-20)
}

// RunBella reproduces one BELLA integration table: the preset stands in
// for the paper's data set, the overlap-detection phase runs once, the
// alignment stage runs (really) for every X on both backends, and the
// paper-scale times are modeled. The CPU column is an anchor fit on the
// first and last X; the GPU columns fit only their constant overhead (the
// overlap phase plus BELLA's batching) on the first X, with the entire
// X-dependence coming from the GPU time model.
func RunBella(scale Scale, preset genome.Preset, paper map[int32]PaperRow3, title, figTitle string, gpus int) (BellaResult, error) {
	var out BellaResult
	rng := rand.New(rand.NewSource(scale.Seed))
	rs := preset.Build(rng)
	cfg := bella.DefaultConfig(preset.Coverage, preset.ErrorRate, 0)
	prep, err := bella.Prepare(context.Background(), rs, cfg)
	if err != nil {
		return out, err
	}
	if len(prep.Pairs) == 0 {
		return out, fmt.Errorf("bench: preset %s produced no overlap candidates", preset.Name)
	}
	factor := float64(preset.PaperAlignments) / float64(len(prep.Pairs))
	platform := POWER9Node()

	// Measure the alignment stage per X on both backends.
	type point struct {
		x        int32
		cpuCells int64
		gpuStats cuda.KernelStats
		gpuCells int64
		transfer int64
	}
	var pts []point
	dev := cuda.MustV100()
	cpu := backend.NewCPU(0) // BELLA's SeqAn-style CPU baseline
	defer cpu.Close()
	cpuRes := make([]xdrop.SeedResult, len(prep.Pairs))
	for _, x := range scale.BellaXValues {
		cpuStats, err := cpu.ExtendBatch(context.Background(), prep.Pairs, cpuRes, xdrop.LinearScheme(cfg.Scoring), x)
		if err != nil {
			return out, err
		}
		gres, err := core.AlignBatch(dev, prep.Pairs, core.DefaultConfig(x))
		if err != nil {
			return out, err
		}
		pts = append(pts, point{
			x: x, cpuCells: cpuStats.Cells,
			gpuStats: gres.Stats, gpuCells: gres.Cells, transfer: gres.TransferBytes,
		})
	}

	// CPU column: power-law anchor fit, both ends pinned to the paper
	// (see FitPower for why the BELLA tables need the exponent).
	lo, hi := pts[0], pts[len(pts)-1]
	cpuFit := FitPower(
		float64(lo.cpuCells)*factor, float64(hi.cpuCells)*factor,
		paper[lo.x].Base, paper[hi.x].Base)

	// GPU columns: the physical model provides the LOGAN-stage seconds;
	// a two-anchor linear fit over that stage absorbs the constant
	// overlap-phase cost and the per-cell composition gap between the
	// synthetic preset and the paper's data.
	platform.Host = BellaHostModel()
	imb, err := MeasureImbalance(scale, 25, gpus)
	if err != nil {
		return out, err
	}
	loganStage := func(p point, g int, im float64) float64 {
		scaled := ScaleStats(p.gpuStats, factor)
		tr := int64(float64(p.transfer) * factor)
		return platform.LoganTime(scaled, tr, int(preset.PaperAlignments), g, im).Seconds()
	}
	fit1 := FitAnchorsAffine(loganStage(lo, 1, 1), loganStage(hi, 1, 1), paper[lo.x].GPU1, paper[hi.x].GPU1)
	fitAll := FitAnchorsAffine(loganStage(lo, gpus, imb), loganStage(hi, gpus, imb), paper[lo.x].GPUAll, paper[hi.x].GPUAll)

	t := stats.Table{
		Title: title,
		Headers: []string{"X", "BELLA", "LOGAN-1GPU", fmt.Sprintf("LOGAN-%dGPU", gpus),
			"spd1", fmt.Sprintf("spd%d", gpus),
			"paperB", "paper1", fmt.Sprintf("paper%d", gpus)},
	}
	var xs, sp1, spAll []float64
	for _, p := range pts {
		cpu := cpuFit.Predict(float64(p.cpuCells) * factor)
		g1 := fit1.Predict(loganStage(p, 1, 1))
		gAll := fitAll.Predict(loganStage(p, gpus, imb))
		out.Rows = append(out.Rows, Timing3{X: p.x, Base: cpu, GPU1: g1, GPUAll: gAll})
		if out.CrossoverX == 0 && cpu > g1 {
			out.CrossoverX = p.x
		}
		ref := paper[p.x]
		t.AddRow(p.x, cpu, g1, gAll, cpu/g1, cpu/gAll, ref.Base, ref.GPU1, ref.GPUAll)
		xs = append(xs, float64(p.x))
		sp1 = append(sp1, cpu/g1)
		spAll = append(spAll, cpu/gAll)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("preset %s: %d reads, %d candidate pairs standing in for %d paper alignments (scale %.0fx)",
			preset.Name, len(rs.Reads), len(prep.Pairs), preset.PaperAlignments, factor),
		fmt.Sprintf("all columns anchored at X=%d and X=%d; middle rows predicted from measured work", lo.x, hi.x))
	out.Table = t
	out.Fig = stats.Chart{
		Title: figTitle, XLabel: "X-drop", YLabel: "BELLA speed-up", LogX: true, LogY: true,
		Series: []stats.Series{
			{Name: "1 GPU", Marker: 'o', X: xs, Y: sp1},
			{Name: fmt.Sprintf("%d GPUs", gpus), Marker: '*', X: xs, Y: spAll},
		},
	}

	// Accuracy of the real (scaled) pipeline at a mid X, CPU backend.
	midX := scale.BellaXValues[len(scale.BellaXValues)/2]
	acfg := bella.DefaultConfig(preset.Coverage, preset.ErrorRate, midX)
	acfg.MinOverlap = preset.MinLen / 2
	res, err := bella.Run(context.Background(), rs, acfg, cpu.ExtendBatch)
	if err != nil {
		return out, err
	}
	out.Accuracy = bella.Evaluate(rs, res.Overlaps, preset.MinLen/2)
	return out, nil
}

// RunTableIV reproduces Table IV / Fig. 10 (E. coli, 6 GPUs).
func RunTableIV(scale Scale) (BellaResult, error) {
	return RunBella(scale, scale.EColi, TableIVPaper,
		"Table IV: BELLA E. coli, 1.82M alignments (POWER9 + 6x V100)",
		"Fig. 10: BELLA speed-up, E. coli (log-log)", 6)
}

// RunTableV reproduces Table V / Fig. 11 (C. elegans, 6 GPUs).
func RunTableV(scale Scale) (BellaResult, error) {
	return RunBella(scale, scale.CElegans, TableVPaper,
		"Table V: BELLA C. elegans, 235M alignments (POWER9 + 6x V100)",
		"Fig. 11: BELLA speed-up, C. elegans (log-log)", 6)
}
