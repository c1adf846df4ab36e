// Package core is LOGAN itself: the paper's GPU X-drop alignment kernel and
// its host-side batching pipeline, implemented on the simulated CUDA device
// of internal/cuda.
//
// The design follows §IV of the paper exactly:
//
//   - Intra-sequence parallelism: each anti-diagonal is computed by the
//     block's threads in segments of blockDim lanes (Fig. 3), the
//     anti-diagonal maximum is found with an in-warp parallel reduction
//     (Alg. 2), and only three rolling anti-diagonals are kept.
//   - Inter-sequence parallelism: one GPU block per alignment extension
//     (Fig. 4); the grid size is the batch size.
//   - The three anti-diagonal buffers live in device HBM, not shared
//     memory, so SM residency is not capped at one block (§IV-B).
//   - Each pair is split at the seed into a left extension (both prefixes
//     reversed, which also linearizes memory access — Figs. 5 and 6) and a
//     right extension, dispatched on two device streams. The seed check,
//     the reversal and the join of the two extensions are the CPU
//     engine's own (xdrop.CheckSeed, the wavefront's one staging step,
//     xdrop.JoinSeed); the host side here keeps only the device's memory
//     and transfer ledger.
//   - The number of threads per block is scheduled from X, since the band
//     width is proportional to X (§IV-B).
//
// The device runs no DP loop of its own: each block takes its scores and
// the width of every anti-diagonal from the internal/xdrop wavefront
// (Workspace.ExtendTrace, over the pair's prefixes or suffixes), so
// device results are the CPU engine's bit for bit — the reproduction's
// "equivalent accuracy" guarantee — and replays that band trace as the
// work the paper's kernel does, which the simulator counts for the
// performance model.
package core

import "logan/internal/xdrop"

// CellOps is the INT32 lane-operation cost of one DP cell update in the
// kernel inner loop (Alg. 2): two sequence loads, the comparison, the
// three-way max with two additions, the X-drop test, and the store.
// Together with the per-anti-diagonal reduction and partial-warp fill
// this yields ~35-40 effective lane-ops per cell, which puts the V100
// compute ceiling at the paper's measured ~181 GCUPS (calibrated against
// Table III's X=5000 row; see EXPERIMENTS.md).
const CellOps = 22

// Config is the paper's kernel configuration: the linear scoring scheme
// the device code hard-wires (§III; protein support is its §VIII future
// work, so no other family is representable here), the X-drop threshold,
// the launch geometry and the two design-ablation switches. The scoring
// family of a request is decided above this package — internal/backend
// lowers an xdrop.Scheme onto a Config and rejects non-linear families.
type Config struct {
	Scoring xdrop.Scoring
	X       int32
	// ThreadsPerBlock overrides the X-proportional schedule when > 0.
	ThreadsPerBlock int

	// SharedMemAntidiags is the design ablation the paper argues against
	// in §IV-B: keep the three anti-diagonals in shared memory, reserving
	// a worst-case 60 KB per block. Results are identical; occupancy
	// collapses to one block per SM and inter-sequence parallelism with
	// it.
	SharedMemAntidiags bool
	// NoQueryReversal is the Fig. 6 ablation: left extensions read the
	// query backwards, so their sequence accesses are uncoalesced (8x
	// sector traffic). Results are identical; memory traffic is not.
	NoQueryReversal bool
}

// BandSlack covers the band's score-fluctuation transient: `best`
// is only updated between anti-diagonals and interior cells are never
// re-pruned, so the band runs wider than the asymptotic 2X by a margin
// that depends on the error bursts of the pair (~tens of cells at 15%
// error). The reservation is a ledger entry sizing how many pairs a
// memory chunk holds; no score depends on it.
const BandSlack = 64

// DefaultConfig returns the paper's configuration: +1/-1/-1 scoring and
// thread count scheduled from X.
func DefaultConfig(x int32) Config {
	return Config{Scoring: xdrop.DefaultScoring(), X: x}
}

// ThreadsForX returns the block size LOGAN schedules for a given X: the
// band width is proportional to X (with unit gap penalties the band cannot
// exceed 2X+3 cells), so blocks get the next multiple of the warp size
// with a floor of one warp and the device's 1024-thread ceiling (§IV-B).
// Scheduling fewer threads at small X avoids stalled lanes and shrinks the
// shared-memory reduction footprint.
func ThreadsForX(x int32) int {
	t := int(x)
	if t < 32 {
		t = 32
	}
	if t > 1024 {
		t = 1024
	}
	return (t + 31) &^ 31
}

// BandAlloc returns the per-extension anti-diagonal buffer length (in
// cells) charged against HBM: the asymptotic X-drop band 2X+3 plus slack,
// capped by the longest possible anti-diagonal of the extension.
func BandAlloc(x int32, maxExtLen int) int {
	b := int(2*x) + 3 + BandSlack
	if maxExtLen+2 < b {
		b = maxExtLen + 2
	}
	if b < 4 {
		b = 4
	}
	return b
}
