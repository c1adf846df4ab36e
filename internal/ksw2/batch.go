package ksw2

import (
	"logan/internal/par"
	"logan/internal/seq"
)

// PairResult is the seed-and-extend outcome for one pair.
type PairResult struct {
	Left, Right Result
	Score       int32
}

// BatchStats aggregates the work of a batch, feeding the Skylake model.
type BatchStats struct {
	Pairs    int
	Cells    int64
	Rows     int64
	MaxBand  int
	SumBand  int64
	VecOps   int64
	ZDropped int
}

// MeanBand returns the mean row-band width over the batch.
func (s BatchStats) MeanBand() float64 {
	if s.Rows == 0 {
		return 0
	}
	return float64(s.SumBand) / float64(s.Rows)
}

// ExtendBatch runs ksw2 seed-and-extend over all pairs on `workers`
// goroutines (0 = GOMAXPROCS), the multi-threaded harness the paper's
// Skylake runs use.
func ExtendBatch(pairs []seq.Pair, p Params, workers int) ([]PairResult, BatchStats) {
	workers = par.Workers(workers)
	if workers > len(pairs) && len(pairs) > 0 {
		workers = len(pairs)
	}
	results := make([]PairResult, len(pairs))
	par.Claim(len(pairs), workers, func(_, i int) {
		l, r, score := ExtendSeed(pairs[i], p)
		results[i] = PairResult{Left: l, Right: r, Score: score}
	})

	var stats BatchStats
	stats.Pairs = len(pairs)
	for i := range results {
		for _, r := range []Result{results[i].Left, results[i].Right} {
			stats.Cells += r.Cells
			stats.Rows += int64(r.Rows)
			stats.SumBand += r.SumBand
			stats.VecOps += r.VecOps
			if r.MaxBand > stats.MaxBand {
				stats.MaxBand = r.MaxBand
			}
			if r.ZDropped {
				stats.ZDropped++
			}
		}
	}
	return results, stats
}
