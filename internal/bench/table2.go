package bench

import (
	"fmt"

	"logan/internal/stats"
)

// Timing3 is one modeled row of a LOGAN-vs-baseline table.
type Timing3 struct {
	X       int32
	Base    float64 // baseline seconds (modeled)
	GPU1    float64 // LOGAN 1 GPU seconds (modeled)
	GPUAll  float64 // LOGAN all-GPU seconds (modeled)
	GCUPS1  float64 // LOGAN 1-GPU GCUPS
	ScoreEq bool
}

// SweepResult is the outcome of a Table II or III reproduction.
type SweepResult struct {
	Rows  []Timing3
	Table stats.Table
	Fig   stats.Chart // the companion speed-up figure (Fig. 8 / Fig. 9)
	// PeakGCUPS is LOGAN's best single-GPU GCUPS across the sweep
	// (paper: 181.4 at X=5000).
	PeakGCUPS float64
}

// RunTableII reproduces Table II and Fig. 8: LOGAN vs the SeqAn X-drop on
// the POWER9 node, 100K alignments, 6 GPUs. The SeqAn column is an
// anchor fit (first and last X pinned to the paper, middle rows predicted
// from measured cells); the LOGAN columns come entirely from the GPU time
// model.
func RunTableII(scale Scale) (SweepResult, error) {
	points, err := MeasureSweep(scale, false)
	if err != nil {
		return SweepResult{}, err
	}
	return buildSweep(scale, points, sweepSpec{
		title:     "Table II: LOGAN vs SeqAn, 100K alignments (POWER9 + 6x V100)",
		baseName:  "SeqAn-168t",
		gpus:      6,
		platform:  POWER9Node(),
		paper:     TableIIPaper,
		figTitle:  "Fig. 8: LOGAN speed-up over SeqAn (log-log)",
		baseCells: func(p SweepPoint) int64 { return p.SeqAnCells },
		baseFit: func(rows []SweepPoint, f float64) func(SweepPoint) float64 {
			lo, hi := rows[0], rows[len(rows)-1]
			fit := FitAnchors(
				float64(lo.SeqAnCells)*f, float64(hi.SeqAnCells)*f,
				TableIIPaper[lo.X].Base, TableIIPaper[hi.X].Base)
			return func(p SweepPoint) float64 { return fit.Predict(float64(p.SeqAnCells) * f) }
		},
	})
}

// RunTableIII reproduces Table III and Fig. 9: LOGAN vs ksw2 on the
// Skylake node, 100K alignments, 8 GPUs. The ksw2 column uses the
// three-anchor cached fit: per-pair overhead from the smallest X, the
// in-cache rate from X=100, and the cache-collapse penalty from the
// largest X; middle rows are predictions.
func RunTableIII(scale Scale) (SweepResult, error) {
	points, err := MeasureSweep(scale, true)
	if err != nil {
		return SweepResult{}, err
	}
	return buildSweep(scale, points, sweepSpec{
		title:     "Table III: LOGAN vs ksw2, 100K alignments (Skylake + 8x V100)",
		baseName:  "ksw2-80t",
		gpus:      8,
		platform:  SkylakeNode(),
		paper:     TableIIIPaper,
		figTitle:  "Fig. 9: LOGAN speed-up over ksw2 (log-log)",
		baseCells: func(p SweepPoint) int64 { return p.Ksw2Cells },
		baseFit: func(rows []SweepPoint, f float64) func(SweepPoint) float64 {
			lo := rows[0]
			mid := rows[0]
			for _, p := range rows {
				if p.X == 100 {
					mid = p
				}
			}
			if mid.X == lo.X && len(rows) > 2 {
				mid = rows[1]
			}
			hi := rows[len(rows)-1]
			two := FitAnchors(
				float64(lo.Ksw2Cells)*f, float64(mid.Ksw2Cells)*f,
				TableIIIPaper[lo.X].Base, TableIIIPaper[mid.X].Base)
			fit := CachedAnchorFit{
				Overhead: two.Overhead,
				BaseRate: two.Rate,
				WsLo:     float64(workingSetKsw2(mid.Ksw2MaxBand)),
				WsHi:     float64(workingSetKsw2(hi.Ksw2MaxBand)),
			}
			// Solve the collapse penalty so the top anchor is exact.
			tHi := TableIIIPaper[hi.X].Base
			cHi := float64(hi.Ksw2Cells) * f
			fit.Penalty = (tHi - fit.Overhead) * fit.BaseRate / cHi
			if fit.Penalty < 1 {
				fit.Penalty = 1
			}
			return func(p SweepPoint) float64 {
				return fit.Predict(float64(p.Ksw2Cells)*f, float64(workingSetKsw2(p.Ksw2MaxBand)))
			}
		},
	})
}

type sweepSpec struct {
	title     string
	baseName  string
	gpus      int
	platform  GPUPlatform
	paper     map[int32]PaperRow3
	figTitle  string
	baseCells func(SweepPoint) int64
	baseFit   func([]SweepPoint, float64) func(SweepPoint) float64
}

func buildSweep(scale Scale, points []SweepPoint, spec sweepSpec) (SweepResult, error) {
	out := SweepResult{}
	f := scale.Factor()
	predict := spec.baseFit(points, f)
	imb := MeasureImbalance(scale, spec.gpus)

	t := stats.Table{
		Title: spec.title,
		Headers: []string{"X", spec.baseName, "LOGAN-1GPU", fmt.Sprintf("LOGAN-%dGPU", spec.gpus),
			"spd1", fmt.Sprintf("spd%d", spec.gpus), "GCUPS1",
			"paperBase", "paper1", fmt.Sprintf("paper%d", spec.gpus)},
	}
	var sp1, spAll []float64
	var xs []float64
	for _, p := range points {
		base := predict(p)
		scaled := ScaleStats(p.LoganStats, f)
		transfer := int64(float64(p.LoganTransfer) * f)
		g1 := spec.platform.LoganTime(scaled, transfer, scale.PaperPairs, 1, 1).Seconds()
		gAll := spec.platform.LoganTime(scaled, transfer, scale.PaperPairs, spec.gpus, imb).Seconds()
		gc := float64(p.LoganCells) * f / g1 / 1e9
		row := Timing3{X: p.X, Base: base, GPU1: g1, GPUAll: gAll, GCUPS1: gc, ScoreEq: p.LoganScoreEq}
		out.Rows = append(out.Rows, row)
		if gc > out.PeakGCUPS {
			out.PeakGCUPS = gc
		}
		ref := spec.paper[p.X]
		t.AddRow(p.X, base, g1, gAll, base/g1, base/gAll, gc, ref.Base, ref.GPU1, ref.GPUAll)
		xs = append(xs, float64(p.X))
		sp1 = append(sp1, base/g1)
		spAll = append(spAll, base/gAll)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("anchor rows: X=%d and X=%d pinned to paper; others predicted from measured cells (sample %d pairs, scale %.0fx)",
			points[0].X, points[len(points)-1].X, scale.Pairs, f),
		fmt.Sprintf("multi-GPU imbalance measured at %.3f", imb))
	out.Table = t
	out.Fig = stats.Chart{
		Title: spec.figTitle, XLabel: "X-drop", YLabel: "speed-up", LogX: true, LogY: true,
		Series: []stats.Series{
			{Name: "1 GPU", Marker: 'o', X: xs, Y: sp1},
			{Name: fmt.Sprintf("%d GPUs", spec.gpus), Marker: '*', X: xs, Y: spAll},
		},
	}
	return out, nil
}
