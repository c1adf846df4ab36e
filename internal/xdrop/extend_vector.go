package xdrop

import "logan/internal/seq"

// The vector kernel's int16 working range. Band-local scores are stored
// rebased (score - base) so they fit int16 lanes: the rebase fires between
// anti-diagonals once the local best crosses vectorRebaseAt, which keeps
// every live lane inside [best-x, best+match] ⊂ (negInf16Guard, 32767)
// with margin — saturation can therefore never touch a live score, which
// is what keeps the kernel bit-identical to the int32 scalar path.
const (
	// negInf16 is the pruned-lane sentinel. It is far enough from the
	// int16 edge that sentinel + score never wraps, and far enough below
	// any reachable threshold (>= -vectorMaxX after a rebase) that a
	// sentinel-sourced cell is always re-pruned.
	negInf16 int16 = -29000
	// negInf16Guard separates live lanes from sentinel lanes during the
	// rebase sweep: live values stay strictly above it, sentinels below.
	negInf16Guard int16 = negInf16 / 2
	// vectorRebaseAt triggers the between-diagonal rebase sweep.
	vectorRebaseAt int16 = 16384
	// VectorMaxX is the widest X-drop threshold the vector kernel
	// accepts: beyond it the band's dynamic range (x + match) approaches
	// the int16 span and the scalar kernel takes over.
	VectorMaxX int32 = 8192
	// VectorMaxScore bounds |match|, |mismatch| and |gap| for the vector
	// path; larger parameters (legal in the scalar engine) fall back.
	VectorMaxScore int32 = 255
)

// VectorEligible reports whether the int16 SIMD kernel can run this
// linear scoring configuration bit-identically: parameter magnitudes must
// fit the rebased int16 range and x must leave saturation headroom. The
// kernel-selection layer (SelectKernel, chosen once per batch) consults
// this; ExtendVector also re-checks and falls back to the scalar kernel,
// so a direct call is safe for any validated input.
func VectorEligible(sc Scoring, x int32) bool {
	return x >= 0 && x <= VectorMaxX &&
		sc.Match > 0 && sc.Match <= VectorMaxScore &&
		sc.Mismatch < 0 && sc.Mismatch >= -VectorMaxScore &&
		sc.Gap < 0 && sc.Gap >= -VectorMaxScore
}

// fusedPad is the readable slack on each side of the sequences the
// AVX-512 routine's register mode reads, its padded copy of q and rt: a
// 128-lane frame reads 128 bases of each from up to 128 bases before their
// start to up to 128 after their end. Only the bases its band compares
// need to be filled; the rest never reach a score. The fused routines
// take rt at fusedPad bytes into a buffer of n+2*fusedPad.
const fusedPad = 128

// fusedState is what a fused routine and its Go driver share: the
// extension's constants and the pointers the routine reads through, set
// once; wave's loop variables, saved whenever the routine returns and
// reloaded when it resumes; and two values the routine keeps per
// anti-diagonal where its registers cannot. The assembly reaches the
// fields by the offsets go_asm.h generates from this declaration.
type fusedState struct {
	m, n, x              int
	match, mismatch, gap int
	limit                int64 // pause once cells reaches this (the paired routine: once d passes it)

	d, lo, hi          int // the next anti-diagonal and its unclipped band
	best, bestI, bestJ int // best is band-local (rebased)
	// v[phase] is written next, v[(phase+1)%3] holds the previous
	// anti-diagonal and v[(phase+2)%3] the one before; cell i of those two
	// is slot i-org of their buffer.
	phase, org2, org3 int
	cells             int64
	maxBand           int
	done              bool

	thr, uHi int

	// The AVX-512 register mode: lanes is the width of the frame (64 or
	// 128) while the carried anti-diagonals live in registers, or in frame
	// below between two calls of the paired routine; 0 while they are in
	// the diagonal buffers (always across a return of the solo routine).
	// How many anti-diagonals ran in registers, how many of those in the
	// paired routine, how often the rows moved into and out of a frame,
	// and how many of the moves in were into a 128-lane frame. thr and
	// uHi are the solo routine's scratch at its handoffs.
	lanes                                  int
	regRows, paired, toRegs, toMem, toWide int

	// What the routines read: the diagonal buffers; q (on AVX-512 its
	// padded copy), t, and rt at fusedPad into its buffer of n+2*fusedPad,
	// which the solo routines fill, rt[n-d] = t[d-1], while d <= fill (0
	// once the driver has filled it whole); the trace, nil when untraced,
	// else room for m+n widths with the one of anti-diagonal d at
	// trace[d-1].
	v        *[3][]int16
	q, t, rt *byte
	fill     int
	trace    *int32

	// The paired routine's 64-lane frame while lanes is 64: F_d (lane l of
	// anti-diagonal d holds cell F_d + l), the band of d as a lane mask,
	// and the two carried anti-diagonals, frame[0] the one odd d reads as
	// the previous (the other as the one before) and frame[1] the one even
	// d reads as the previous.
	f     int
	band  uint64
	frame [2][64]int16
	// edge is the last anti-diagonal whose band the paired routine need
	// not clip to the matrix (every lane of the frame the band is found in
	// lies inside) and that does not pass limit: it checks both only
	// beyond.
	edge int
}

// fusedSlot is one extension's place on the fused routines: its state,
// its three diagonal buffers, its padded copies of q (AVX-512) and of the
// reversed target, the reversal staging of a left extension, and what
// the rebase took off its scores. A Workspace has two: the solo routine
// runs in the first, a Pool worker's paired stream in both.
type fusedSlot struct {
	st         fusedState
	v          [3][]int16
	rt, qp     seq.Seq
	revQ, revT seq.Seq
	base       int32
	trace      *[]int32
	traced     int // len(*trace) when the extension started
}

// rowISA names the routine an int16 extension runs on. It is set once at
// package init from the CPU (see detectISA) and never changes afterwards;
// only tests flip it, to drive every variant on one host.
type rowISA int8

const (
	isaNone   rowISA = iota // no fused routine (every non-amd64 build): the vector kernel is the scalar one
	isaSSE2                 // the fused routine with 8-lane blocks, the amd64 baseline
	isaAVX2                 // the fused routine with 16-lane blocks for rows >= 32 cells
	isaAVX512               // isaAVX2 plus the register mode for bands of up to 64 cells
)

var vectorISA = detectISA()

// VectorISA names the instruction set the vector kernel runs on in this
// process: "avx512", "avx2", "sse2", or "none" where there is no fused
// routine and the vector kernel is the scalar one.
func VectorISA() string {
	return [...]string{isaNone: "none", isaSSE2: "sse2", isaAVX2: "avx2", isaAVX512: "avx512"}[vectorISA]
}

// ExtendVector is the int16 SIMD form of Workspace.Extend: scores, extents
// and work counters are bit-identical to the scalar kernel (and so to
// ExtendReference) on every input. Inputs outside the vector envelope
// (VectorEligible) fall back to the scalar kernel, and so does every
// input where there is no fused routine (VectorISA "none"). Score-offset
// rebasing (see the constants above) keeps lane values exact in int16, so
// no saturating clamp can ever touch a live score.
func (w *Workspace) ExtendVector(q, t seq.Seq, sc Scoring, x int32) Result {
	if !VectorEligible(sc, x) {
		return w.Extend(q, t, sc, x)
	}
	return w.extendVector(q, t, false, sc, int16(x), nil)
}

// ExtendTrace is the linear extension with its band trace: it runs the
// kernel SelectKernel picks for sc and x (this vector kernel inside its
// envelope, the scalar one outside), appends to trace the width of every
// anti-diagonal after the origin in the order they were computed, and
// returns the result and the grown trace. The trace grows by
// AntiDiags-1 widths (none for an empty extension) that sum to Cells-1,
// none wider than MaxBand. Its caller is the simulated device
// (internal/core), which replays the trace as a block's work accounting.
func (w *Workspace) ExtendTrace(q, t seq.Seq, sc Scoring, x int32, trace []int32) (Result, []int32) {
	var r Result
	if VectorEligible(sc, x) {
		r = w.extendVector(q, t, false, sc, int16(x), &trace)
	} else {
		r = wave(&w.d, &w.rt, q, t, x, linearRow(sc), &trace)
	}
	return r, trace
}
