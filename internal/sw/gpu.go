package sw

import (
	"fmt"

	"logan/internal/cuda"
	"logan/internal/seq"
	"logan/internal/xdrop"
)

// Per-cell INT32 lane-op costs of the two GPU comparators, relative to
// LOGAN's ~26 (internal/core). CUDASW++ is a protein-oriented SW kernel:
// substitution-profile gathers, the local zero clamp and per-cell best
// tracking roughly two-and-a-half-fold its per-cell instruction count
// (its published GCUPS on V100-class parts sit near 70 vs LOGAN's 181,
// Fig. 12). manymap's fixed-band DNA kernel is leaner but still carries
// chaining bookkeeping.
const (
	CUDASWCellOps  = 96
	ManymapCellOps = 48
)

// GPUBatchResult is the outcome of a comparator kernel over a batch.
type GPUBatchResult struct {
	Scores []int32
	Cells  int64
	Stats  cuda.KernelStats
}

// CUDASWBatch runs a CUDASW++-like full Smith-Waterman kernel: one block
// per pair, anti-diagonal wavefront over the entire m x n matrix, no
// pruning. Scores are exact SW scores (verified against Local in tests);
// the work is quadratic, which is exactly why its GCUPS ceiling in Fig. 12
// does not translate into end-to-end wins on long reads.
func CUDASWBatch(dev *cuda.Device, pairs []seq.Pair, sc xdrop.Scoring, threads int) (GPUBatchResult, error) {
	if len(pairs) == 0 {
		return GPUBatchResult{}, nil
	}
	if threads <= 0 {
		threads = 128
	}
	scores := make([]int32, len(pairs))
	cells := make([]int64, len(pairs))
	kernel := func(b *cuda.BlockCtx) {
		p := &pairs[b.BlockIdx]
		m, n := len(p.Query), len(p.Target)
		if m == 0 || n == 0 {
			return
		}
		r := Local(p.Query, p.Target, sc)
		scores[b.BlockIdx] = r.Score
		cells[b.BlockIdx] = r.Cells
		// Account the wavefront: anti-diagonal d has width w(d); each
		// segment of `threads` lanes is one step.
		b.GlobalRead(cuda.TrafficStream, int64(m+n), true) // sequences
		rowBytes := int64(4)
		for d := 2; d <= m+n; d++ {
			w := min(d-1, m) - max(1, d-n) + 1
			if w <= 0 {
				continue
			}
			for off := 0; off < w; off += threads {
				active := min(threads, w-off)
				b.Step(active, CUDASWCellOps)
			}
			b.GlobalRead(cuda.TrafficReuse, 2*rowBytes*int64(w), true)
			b.GlobalWrite(cuda.TrafficReuse, rowBytes*int64(w), true)
			b.Sync()
		}
		b.DeclareReuseFootprint(3 * rowBytes * int64(min(m, n)+1))
	}
	stats, err := dev.Launch(cuda.LaunchConfig{
		Name: "cudasw", Grid: len(pairs), Block: threads,
	}, kernel)
	if err != nil {
		return GPUBatchResult{}, fmt.Errorf("sw: cudasw launch: %w", err)
	}
	var total int64
	for _, c := range cells {
		total += c
	}
	return GPUBatchResult{Scores: scores, Cells: total, Stats: stats}, nil
}

// ManymapBatch runs a manymap-like kernel (Feng et al., the GPU-accelerated
// minimap2 of the paper's related work): fixed-band alignment of half-width
// w around the seed diagonal, one block per pair. manymap is single-GPU
// software; the Fig. 12 harness plots it as a flat line.
func ManymapBatch(dev *cuda.Device, pairs []seq.Pair, sc xdrop.Scoring, w, threads int) (GPUBatchResult, error) {
	if len(pairs) == 0 {
		return GPUBatchResult{}, nil
	}
	if w <= 0 {
		w = 500
	}
	if threads <= 0 {
		threads = 128
	}
	scores := make([]int32, len(pairs))
	cells := make([]int64, len(pairs))
	kernel := func(b *cuda.BlockCtx) {
		p := &pairs[b.BlockIdx]
		if len(p.Query) == 0 || len(p.Target) == 0 {
			return
		}
		r := Banded(p.Query, p.Target, sc, w)
		scores[b.BlockIdx] = r.Score
		cells[b.BlockIdx] = r.Cells
		b.GlobalRead(cuda.TrafficStream, int64(len(p.Query)+len(p.Target)), true)
		band := min(2*w+1, len(p.Target))
		rowBytes := int64(4)
		for i := 1; i <= len(p.Query); i++ {
			for off := 0; off < band; off += threads {
				active := min(threads, band-off)
				b.Step(active, ManymapCellOps)
			}
			b.GlobalRead(cuda.TrafficReuse, 2*rowBytes*int64(band), true)
			b.GlobalWrite(cuda.TrafficReuse, rowBytes*int64(band), true)
			b.Sync()
		}
		b.DeclareReuseFootprint(2 * rowBytes * int64(band))
	}
	stats, err := dev.Launch(cuda.LaunchConfig{
		Name: "manymap", Grid: len(pairs), Block: threads,
	}, kernel)
	if err != nil {
		return GPUBatchResult{}, fmt.Errorf("sw: manymap launch: %w", err)
	}
	var total int64
	for _, c := range cells {
		total += c
	}
	return GPUBatchResult{Scores: scores, Cells: total, Stats: stats}, nil
}
