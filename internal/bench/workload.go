package bench

import (
	"context"
	"fmt"
	"math/rand"

	"logan/internal/core"
	"logan/internal/cuda"
	"logan/internal/ksw2"
	"logan/internal/loadbal"
	"logan/internal/seq"
	"logan/internal/xdrop"
)

// SweepPoint is the measured work at one X value on the sample pair set:
// everything the models need, from all three implementations run on the
// identical input.
type SweepPoint struct {
	X int32

	// SeqAn-style CPU X-drop.
	SeqAnCells    int64
	SeqAnMeanBand float64
	SeqAnMaxBand  int

	// ksw2 Z-drop (affine).
	Ksw2Cells    int64
	Ksw2MeanBand float64
	Ksw2MaxBand  int

	// LOGAN on the simulated GPU.
	LoganStats    cuda.KernelStats
	LoganCells    int64
	LoganTransfer int64
	LoganScoreEq  bool // GPU scores identical to the CPU X-drop
}

// MeasureSweep runs SeqAn-style X-drop, ksw2 and LOGAN over the sample
// pairs for every X in the scale and returns the per-X work measurements.
// The LOGAN scores are verified against the CPU scores pair-by-pair; the
// equality result is carried in the point (and asserted by tests) because
// the paper's comparison is only fair at equivalent accuracy.
func MeasureSweep(scale Scale, withKsw2 bool) ([]SweepPoint, error) {
	pairs := scale.PairSet()
	dev := cuda.MustV100()
	pool := xdrop.NewPool(0)
	defer pool.Close()
	cpuRes := make([]xdrop.SeedResult, len(pairs))
	points := make([]SweepPoint, 0, len(scale.XValues))
	for _, x := range scale.XValues {
		p := SweepPoint{X: x}

		cpuStats, err := pool.ExtendBatchScheme(context.Background(), pairs, cpuRes, xdrop.LinearScheme(xdrop.DefaultScoring()), x)
		if err != nil {
			return nil, fmt.Errorf("bench: seqan sweep X=%d: %w", x, err)
		}
		p.SeqAnCells = cpuStats.Cells
		p.SeqAnMeanBand = cpuStats.MeanBand()
		p.SeqAnMaxBand = cpuStats.MaxBand

		if withKsw2 {
			_, kstats := ksw2.ExtendBatch(pairs, ksw2.MinimapParams(x), 0)
			p.Ksw2Cells = kstats.Cells
			p.Ksw2MeanBand = kstats.MeanBand()
			p.Ksw2MaxBand = kstats.MaxBand
		}

		gpuRes, err := core.AlignBatch(dev, pairs, core.DefaultConfig(x))
		if err != nil {
			return nil, fmt.Errorf("bench: logan sweep X=%d: %w", x, err)
		}
		p.LoganStats = gpuRes.Stats
		p.LoganCells = gpuRes.Cells
		p.LoganTransfer = gpuRes.TransferBytes
		p.LoganScoreEq = true
		for i := range pairs {
			if gpuRes.Results[i].Score != cpuRes[i].Score {
				p.LoganScoreEq = false
				break
			}
		}
		points = append(points, p)
	}
	return points, nil
}

// MeasureImbalance evaluates the load balancer's partition quality at the
// full paper workload size: pair weights are drawn from the scale's
// length distribution (no sequences materialized) and the LPT partition's
// max/mean bucket ratio is returned. The partition is length-based, so
// X does not enter.
func MeasureImbalance(scale Scale, gpus int) float64 {
	if gpus <= 1 {
		return 1
	}
	rng := rand.New(rand.NewSource(scale.Seed + int64(gpus)))
	weights := make([]int64, scale.PaperPairs)
	for i := range weights {
		ln := scale.MinLen
		if scale.MaxLen > scale.MinLen {
			ln += rng.Intn(scale.MaxLen - scale.MinLen + 1)
		}
		weights[i] = 2 * int64(ln)
	}
	buckets := loadbal.PartitionWeights(weights, gpus, loadbal.ByLength)
	return max(loadbal.ImbalanceOf(weights, buckets), 1)
}

// workingSetKsw2 is ksw2's per-pair cache working set, the quantity the
// Skylake cache model keys on: the H and E int16 row arrays of the SSE2
// kernel plus the query profile, two bytes each per cell of the widest
// band.
func workingSetKsw2(maxBand int) int { return maxBand * 6 }

// totalBases sums sequence lengths for GCUPS-style normalization.
func totalBases(pairs []seq.Pair) int64 {
	var t int64
	for i := range pairs {
		t += int64(len(pairs[i].Query) + len(pairs[i].Target))
	}
	return t
}
