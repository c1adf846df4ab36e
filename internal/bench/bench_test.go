package bench

import (
	"strings"
	"testing"

	"logan/internal/cuda"
)

// The tests here assert the DESIGN.md shape criteria on the quick scale:
// who wins, by roughly what factor, and where crossovers fall. Absolute
// magnitudes are checked loosely (the anchors pin them by construction).

func testScale(t *testing.T) Scale {
	t.Helper()
	if testing.Short() {
		t.Skip("bench harness skipped in -short mode")
	}
	return QuickScale()
}

func TestScaleStats(t *testing.T) {
	s := cuda.KernelStats{Grid: 10, WarpInstrs: 100, LaneOps: 50, StreamReadBytes: 30,
		MaxBlockWarpInstrs: 7}
	s.Iter.SumNop = 4
	d := ScaleStats(s, 2.5)
	if d.Grid != 25 || d.WarpInstrs != 250 || d.LaneOps != 125 || d.StreamReadBytes != 75 {
		t.Fatalf("scaled: %+v", d)
	}
	if d.MaxBlockWarpInstrs != 7 {
		t.Fatal("per-block maximum must not scale")
	}
	if d.Iter.SumNop != 10 {
		t.Fatal("iteration aggregate not scaled")
	}
}

func TestFitAnchors(t *testing.T) {
	fit := FitAnchors(1e9, 9e9, 2, 10)
	if fit.Rate != 1e9 {
		t.Fatalf("rate = %v", fit.Rate)
	}
	if fit.Overhead != 1 {
		t.Fatalf("overhead = %v", fit.Overhead)
	}
	// Anchors are exactly reproduced.
	if got := fit.Predict(1e9); got != 2 {
		t.Fatalf("predict(lo) = %v", got)
	}
	if got := fit.Predict(9e9); got != 10 {
		t.Fatalf("predict(hi) = %v", got)
	}
	// Degenerate fit stays positive.
	d := FitAnchors(5, 5, 3, 2)
	if d.Rate <= 0 {
		t.Fatal("degenerate rate")
	}
}

func TestCachedAnchorFit(t *testing.T) {
	f := CachedAnchorFit{Overhead: 1, BaseRate: 1e9, WsLo: 1e4, WsHi: 1e6, Penalty: 10}
	inCache := f.Predict(1e9, 1e3)
	atHi := f.Predict(1e9, 1e6)
	beyond := f.Predict(1e9, 1e8)
	if inCache != 2 {
		t.Fatalf("in-cache = %v", inCache)
	}
	if atHi != 11 {
		t.Fatalf("at collapse = %v", atHi)
	}
	if beyond != atHi {
		t.Fatalf("beyond collapse should be flat: %v vs %v", beyond, atHi)
	}
	mid := f.Predict(1e9, 1e5)
	if mid <= inCache || mid >= atHi {
		t.Fatalf("mid penalty %v not between regimes", mid)
	}
}

func TestTableIShape(t *testing.T) {
	scale := testScale(t)
	res, err := RunTableI(scale)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 9.3x intra; ours must land in the single-to-low-double
	// digits, far from both 1x and the thread count 128x.
	if res.SpeedupIntra < 2 || res.SpeedupIntra > 64 {
		t.Fatalf("intra speed-up %.1f outside plausible band (paper 9.3)", res.SpeedupIntra)
	}
	// Paper: 22000x inter; ours must be >= three orders of magnitude.
	if res.SpeedupInter < 1000 {
		t.Fatalf("inter speed-up %.0f under 1000x (paper 22000)", res.SpeedupInter)
	}
	if !strings.Contains(res.Table.Render(), "Intra+inter") {
		t.Fatal("table missing rows")
	}
}

func TestTableIIShape(t *testing.T) {
	scale := testScale(t)
	res, err := RunTableII(scale)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	for i, r := range rows {
		if !r.ScoreEq {
			t.Fatalf("X=%d: GPU scores not equal to SeqAn", r.X)
		}
		// LOGAN always wins on this table (paper: 2.3-6.6x single GPU).
		if r.GPU1 >= r.Base {
			t.Fatalf("X=%d: LOGAN 1GPU %.2fs not faster than SeqAn %.2fs", r.X, r.GPU1, r.Base)
		}
		if r.GPUAll >= r.Base {
			t.Fatalf("X=%d: LOGAN 6GPU not faster than SeqAn", r.X)
		}
		// Times grow with X for both.
		if i > 0 && (r.Base <= rows[i-1].Base || r.GPU1 < rows[i-1].GPU1) {
			t.Fatalf("X=%d: times not monotone in X", r.X)
		}
	}
	// Speed-up grows with X (paper: 2.3x -> 6.6x).
	first := rows[0].Base / rows[0].GPU1
	last := rows[len(rows)-1].Base / rows[len(rows)-1].GPU1
	if last <= first {
		t.Fatalf("single-GPU speed-up did not grow with X: %.2f -> %.2f", first, last)
	}
	// Multi-GPU beats single GPU at large X.
	if rows[len(rows)-1].GPUAll >= rows[len(rows)-1].GPU1 {
		t.Fatal("6 GPUs not faster than 1 at large X")
	}
}

func TestTableIIIShape(t *testing.T) {
	scale := testScale(t)
	res, err := RunTableIII(scale)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	// ksw2 collapses at large X: the last/first baseline ratio must be
	// far larger than LOGAN's (paper: 465x vs 11x).
	baseGrowth := rows[len(rows)-1].Base / rows[0].Base
	gpuGrowth := rows[len(rows)-1].GPU1 / rows[0].GPU1
	if baseGrowth < 5*gpuGrowth {
		t.Fatalf("ksw2 growth %.1fx vs LOGAN %.1fx: collapse shape missing", baseGrowth, gpuGrowth)
	}
	for _, r := range rows {
		if r.GPU1 >= r.Base {
			t.Fatalf("X=%d: LOGAN not faster than ksw2 (%.2f vs %.2f)", r.X, r.GPU1, r.Base)
		}
	}
	// LOGAN's GCUPS beat the paper's ksw2 peak (paper: 181.4 vs 77.6; at
	// quick scale LOGAN's fixed host cost weighs more, so the margin is
	// checked at 1.2x — DefaultScale reproduces the full gap, see
	// EXPERIMENTS.md).
	const paperKsw2PeakGCUPS = 77.6 // paper §VI-B, at X=100
	if res.PeakGCUPS < 1.2*paperKsw2PeakGCUPS {
		t.Fatalf("LOGAN peak GCUPS %.1f not above ksw2's %.1f", res.PeakGCUPS, paperKsw2PeakGCUPS)
	}
}

func TestTableIVShape(t *testing.T) {
	scale := testScale(t)
	res, err := RunTableIV(scale)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	// The GPU loses at the smallest X (paper: 53.2 vs 110.4) ...
	if rows[0].GPU1 <= rows[0].Base {
		t.Fatalf("X=%d: GPU should lose at small X (%.1f vs %.1f)", rows[0].X, rows[0].GPU1, rows[0].Base)
	}
	// ... and wins by several-fold at the largest X (paper: 4.5x at 100).
	last := rows[len(rows)-1]
	if last.Base/last.GPU1 < 2 {
		t.Fatalf("X=%d: speed-up %.2f under 2x", last.X, last.Base/last.GPU1)
	}
	if res.CrossoverX == 0 {
		t.Fatal("no crossover found")
	}
	// Accuracy of the real scaled pipeline.
	if res.Accuracy.Recall < 0.5 || res.Accuracy.Precision < 0.6 {
		t.Fatalf("accuracy too low: %+v", res.Accuracy)
	}
}

func TestTableVShape(t *testing.T) {
	scale := testScale(t)
	res, err := RunTableV(scale)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Rows[len(res.Rows)-1]
	// Paper: ~4.2x at X=100 on 1 GPU, ~6.8x on 6.
	if last.Base/last.GPU1 < 2 {
		t.Fatalf("C. elegans large-X speed-up %.2f under 2x", last.Base/last.GPU1)
	}
	if last.GPUAll >= last.GPU1 {
		t.Fatal("6 GPUs not faster than 1 on the large data set")
	}
}

func TestFig12Shape(t *testing.T) {
	scale := testScale(t)
	res, err := RunFig12(scale)
	if err != nil {
		t.Fatal(err)
	}
	// LOGAN beats both comparators at every GPU count.
	for i, g := range res.GPUCounts {
		if res.Logan[i] <= res.CUDASW[i] {
			t.Fatalf("%d GPUs: LOGAN %.1f <= CUDASW++ %.1f GCUPS", g, res.Logan[i], res.CUDASW[i])
		}
	}
	if res.Logan[0] <= res.Manymap {
		t.Fatalf("1 GPU: LOGAN %.1f <= manymap %.1f GCUPS", res.Logan[0], res.Manymap)
	}
	// GCUPS grow with GPU count, sub-linearly.
	n := len(res.GPUCounts)
	if res.Logan[n-1] <= res.Logan[0] {
		t.Fatal("LOGAN GCUPS did not scale with GPUs")
	}
	perfect := res.Logan[0] * float64(res.GPUCounts[n-1])
	if res.Logan[n-1] >= perfect {
		t.Fatal("multi-GPU scaling should be sub-linear (load balancer overhead)")
	}
	// Paper: 8-GPU LOGAN ~3.2x GPU-only CUDASW++. At quick scale LOGAN's
	// host share compresses the gap; require dominance plus a sane band
	// (DefaultScale lands at 1.6x, see EXPERIMENTS.md).
	ratio := res.Logan[n-1] / res.CUDASW[n-1]
	if ratio < 1.0 || ratio > 8 {
		t.Fatalf("LOGAN/CUDASW++ ratio %.2f outside [1, 8] (paper 3.2)", ratio)
	}
	// Paper ordering at one GPU: LOGAN > manymap > CUDASW++ GPU-only.
	if res.Manymap <= res.CUDASW[0] {
		t.Fatalf("manymap %.1f should beat single-GPU CUDASW++ %.1f (paper: 96 vs 70)", res.Manymap, res.CUDASW[0])
	}
}

func TestFig13Shape(t *testing.T) {
	scale := testScale(t)
	res, err := RunFig13(scale)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	// Paper: the kernel is compute-bound and near the adapted ceiling.
	if !rep.ComputeBound {
		t.Fatalf("kernel memory-bound: OI %.3f < ridge %.3f", rep.OI, rep.Ridge)
	}
	if rep.CeilingFraction < 0.5 || rep.CeilingFraction > 1.1 {
		t.Fatalf("achieved/adapted ceiling = %.2f, want near 1", rep.CeilingFraction)
	}
	if rep.AdaptedCeiling > rep.Model.INT32GIPS {
		t.Fatal("adapted ceiling above the INT32 roof")
	}
	if !strings.Contains(res.Plot, "K") {
		t.Fatal("plot missing kernel point")
	}
}
