package bella

import (
	"context"
	"time"

	"logan/internal/genome"
	"logan/internal/seq"
	"logan/internal/xdrop"
)

// AlignerStats is the work of the alignment stage: DP cells, and the
// modeled GPU time of engines with device shards (zero otherwise).
type AlignerStats struct {
	Cells      int64
	DeviceTime time.Duration
}

// Aligner is the pluggable pairwise-alignment stage: BELLA ships with
// SeqAn on CPU threads; the paper's contribution swaps in LOGAN batches on
// GPUs (§V), and package logan injects its public engine (shared with the
// serve path) through this interface. Implementations must return results
// positionally aligned with the input pairs and bit-identical scores
// (every substrate implements the same X-drop semantics), and should
// observe ctx cancellation at their natural granularity.
type Aligner interface {
	Name() string
	AlignPairs(ctx context.Context, pairs []seq.Pair, sc xdrop.Scoring, x int32) ([]xdrop.SeedResult, AlignerStats, error)
}

// CPUAligner is the SeqAn-style baseline: independent pairwise alignments
// across worker threads (OpenMP in the original).
type CPUAligner struct {
	Workers int
}

// Name identifies the aligner in reports.
func (a CPUAligner) Name() string { return "seqan-cpu" }

// AlignPairs runs the serial X-drop kernel on a pool of a.Workers
// workers (0 = GOMAXPROCS) held for this call. Cancellation is observed
// per pair by the pool's workers.
func (a CPUAligner) AlignPairs(ctx context.Context, pairs []seq.Pair, sc xdrop.Scoring, x int32) ([]xdrop.SeedResult, AlignerStats, error) {
	pool := xdrop.NewPool(a.Workers)
	defer pool.Close()
	res := make([]xdrop.SeedResult, len(pairs))
	stats, err := pool.ExtendBatchScheme(ctx, pairs, res, xdrop.LinearScheme(sc), x)
	if err != nil {
		return nil, AlignerStats{}, err
	}
	return res, AlignerStats{Cells: stats.Cells}, nil
}

// BuildAlignmentPairs materializes the candidate pairs plus chosen seeds
// into the flat pair list the aligners consume. Opposite-strand candidates
// get a reverse-complemented target with the seed position remapped; a
// read's reverse complement is built once and shared by all its pairs.
func BuildAlignmentPairs(reads []genome.Read, cands []Candidate, seeds []ChosenSeed, k int) []seq.Pair {
	pairs := make([]seq.Pair, len(cands))
	revComp := make([]seq.Seq, len(reads))
	for i, c := range cands {
		ri, rj := reads[c.I], reads[c.J]
		target := rj.Seq
		pj := int(seeds[i].PosJ)
		if seeds[i].Opposite {
			if revComp[c.J] == nil {
				revComp[c.J] = rj.Seq.RevComp()
			}
			target = revComp[c.J]
			pj = len(rj.Seq) - k - pj
		}
		pairs[i] = seq.Pair{
			Query:    ri.Seq,
			Target:   target,
			SeedQPos: int(seeds[i].PosI),
			SeedTPos: pj,
			SeedLen:  k,
			ID:       i,
		}
	}
	return pairs
}
