// Package logan is a Go reproduction of LOGAN (Zeni et al., IPDPS 2020):
// high-performance batched X-drop pairwise alignment for long reads. The
// package front-ends the repository's engine: the X-drop seed-and-extend
// algorithm of Zhang et al. with a SeqAn-compatible CPU path and a
// simulated-GPU path that reproduces the paper's kernel design
// (block-per-alignment, anti-diagonal thread segments, warp max-reduction,
// adaptive band, multi-GPU load balancing).
//
// The v2 API separates engine shape from per-request parameters: an
// Aligner is built once from EngineOptions (backend, devices, threads)
// and every Align call carries a context plus its own Config (X and
// scoring scheme), so a single engine serves mixed linear, affine and
// substitution-matrix traffic concurrently:
//
//	eng, err := logan.NewAligner(logan.EngineOptions{Backend: logan.Hybrid})
//	defer eng.Close()
//	out, stats, err := eng.Align(ctx, pairs, logan.DefaultConfig(100))
//	aff := logan.Config{X: 100, Scoring: logan.AffineScoring(1, -1, -2, -1)}
//	out, stats, err = eng.Align(ctx, pairs, aff)
//	pro := logan.Config{X: 40, Scoring: logan.MatrixScoring(logan.Blosum62(-6))}
//	out, stats, err = eng.Align(ctx, protPairs, pro)
//
//	c := eng.NewCoalescer(logan.CoalescerOptions{}) // merge concurrent callers
//
// Execution is pluggable (internal/backend): CPU worker pool, one
// simulated GPU, or the partitioned executor that shards each batch
// across several devices (the paper's multi-GPU node) or across the CPU
// pool and every device (Hybrid). Below this package the scoring family
// travels in one form, xdrop.Scheme, which Config lowers to once per
// request. All backends produce bit-identical scores; GPU-backed batches
// additionally report the modeled device time on NVIDIA Tesla V100s. The
// GPU kernel is linear-DNA only, exactly like the paper's device code:
// affine and matrix configs run on CPU engines, route to the CPU shards
// of a Hybrid engine, and fail with ErrUnsupportedConfig on a pure-GPU
// engine.
package logan

import (
	"fmt"
	"time"

	"logan/internal/xdrop"
)

// Backend selects the execution engine.
type Backend int

const (
	// CPU runs the SeqAn-style multi-threaded X-drop (the paper's
	// baseline).
	CPU Backend = iota
	// GPU runs the LOGAN kernel on simulated Tesla V100 devices.
	GPU
	// Hybrid shards every batch across the CPU worker pool and every
	// simulated GPU at once: a heterogeneous LPT split weighted by each
	// worker's throughput estimate, run concurrently and merged in input
	// order. Scores are bit-identical to CPU and GPU execution.
	Hybrid
)

// backendNames are the spellings of a Backend on every command line.
var backendNames = [...]string{CPU: "cpu", GPU: "gpu", Hybrid: "hybrid"}

// String returns the backend's command-line spelling: "cpu", "gpu" or
// "hybrid".
func (b Backend) String() string {
	if b < 0 || int(b) >= len(backendNames) {
		return fmt.Sprintf("backend(%d)", int(b))
	}
	return backendNames[b]
}

// MarshalText implements encoding.TextMarshaler with String's spelling.
func (b Backend) MarshalText() ([]byte, error) { return []byte(b.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler — the one place a
// -backend flag value is parsed (every binary binds it with
// flag.TextVar).
func (b *Backend) UnmarshalText(text []byte) error {
	for i, name := range backendNames {
		if string(text) == name {
			*b = Backend(i)
			return nil
		}
	}
	return fmt.Errorf("unknown backend %q (want cpu, gpu or hybrid)", text)
}

// Pair is one alignment work item: two sequences and an exact seed match
// (positions and length), as produced by an overlapper such as BELLA.
//
// Ingestion is zero-copy: canonical sequences (upper-case ACGTN for the
// linear and affine schemes, the matrix alphabet for matrix scoring) are
// aliased, not copied, so the caller must not mutate Query or Target until
// the call that received the Pair has returned.
type Pair struct {
	Query, Target []byte
	SeedQ, SeedT  int
	SeedLen       int
}

// Alignment is the outcome for one pair: the combined seed-and-extend
// score and the aligned intervals on both sequences. LOGAN is score-only
// (no traceback), exactly like the original.
type Alignment struct {
	Score        int32
	QBegin, QEnd int   // aligned query interval [QBegin, QEnd)
	TBegin, TEnd int   // aligned target interval [TBegin, TEnd)
	Cells        int64 // DP cells the extension explored
}

// BackendStats is the per-worker share of one batch: which execution
// backend ran how many pairs, how many DP cells they cost, and how long
// that shard took. Time follows the same denominator convention as GCUPS:
// modeled device time for GPU shards, measured wall time for CPU shards.
type BackendStats struct {
	// Name identifies the worker: "cpu", "gpu0", "gpu1", ...
	Name  string
	Pairs int
	Cells int64
	Time  time.Duration
}

// Stats summarizes a batch.
type Stats struct {
	Pairs int
	Cells int64
	// WallTime is the measured host time of the batch itself; engine
	// setup (worker pools, device pools) is paid at NewAligner and never
	// counted here, so the figure is stable across repeated batches.
	WallTime time.Duration
	// DeviceTime is the modeled GPU completion time of the batch (GPU and
	// Hybrid backends): kernels and transfers on the device timeline of
	// the slowest device, excluding one-off pool construction and
	// host-side prep. Zero for pure-CPU execution.
	DeviceTime time.Duration
	// GCUPS is billions of DP cells per second. The denominator depends
	// on the backend, because the two clocks measure different things:
	//
	//   - CPU: WallTime — real host execution has only the wall clock.
	//   - GPU: DeviceTime — the paper's device-side throughput metric;
	//     modeled kernel+transfer time, independent of simulator speed.
	//   - Hybrid: WallTime — shards mix the two clocks (CPU wall, GPU
	//     device), so only end-to-end wall time is meaningful; per-shard
	//     rates live in PerBackend.
	//
	// When the selected denominator is zero (e.g. an empty batch), GCUPS
	// is 0, never NaN or Inf.
	GCUPS float64
	// PerBackend is the per-worker breakdown of the batch in worker
	// order: one entry for the CPU pool and/or each device that received
	// pairs. Single-backend batches report a single entry.
	PerBackend []BackendStats
}

func toAlignment(r xdrop.SeedResult) Alignment {
	return Alignment{
		Score:  r.Score,
		QBegin: r.QBegin, QEnd: r.QEnd,
		TBegin: r.TBegin, TEnd: r.TEnd,
		Cells: r.Cells(),
	}
}
