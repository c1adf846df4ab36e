package xdrop

// BatchStats summarizes the DP work of a batch of seed extensions, the
// inputs to the CPU time model and the GCUPS metric.
type BatchStats struct {
	Pairs     int
	Cells     int64
	AntiDiags int64
	MaxBand   int
	SumBand   int64 // over all anti-diagonals of all pairs
	// Kernel is the extension kernel the batch ran on, chosen once per
	// batch from its config key (see SelectKernel).
	Kernel Kernel
}

// MeanBand returns the average anti-diagonal width across the batch.
func (s BatchStats) MeanBand() float64 {
	if s.AntiDiags == 0 {
		return 0
	}
	return float64(s.SumBand) / float64(s.AntiDiags)
}

// Accumulate folds a single seed-extension result into the stats.
func (s *BatchStats) Accumulate(r SeedResult) {
	s.Pairs++
	s.Cells += r.Cells()
	s.AntiDiags += int64(r.Left.AntiDiags + r.Right.AntiDiags)
	s.SumBand += r.Left.SumBand + r.Right.SumBand
	if r.Left.MaxBand > s.MaxBand {
		s.MaxBand = r.Left.MaxBand
	}
	if r.Right.MaxBand > s.MaxBand {
		s.MaxBand = r.Right.MaxBand
	}
}
