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
// this; Workspace.extend also re-checks and falls back to the scalar
// kernel, so KernelVector is safe to force for any validated input.
func VectorEligible(sc Scoring, x int32) bool {
	return x >= 0 && x <= VectorMaxX &&
		sc.Match > 0 && sc.Match <= VectorMaxScore &&
		sc.Mismatch < 0 && sc.Mismatch >= -VectorMaxScore &&
		sc.Gap < 0 && sc.Gap >= -VectorMaxScore
}

// fusedPad is the slack on each side of an extension's staged copies of
// q and of the reversed target (see fusedSlot.stage): the AVX-512
// routine's 128-lane frames read 128 bases of each from up to 128 bases
// before their start to up to 128 after their end. The bytes in the slack
// never reach a score, so staging leaves them as they are.
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

	thr, uHi int // scratch of the memory rows

	// lanes is the width of the AVX-512 frame (64 or 128) while the
	// carried anti-diagonals are in one, in the registers of a call or in
	// frame between calls; 0 while they are in the diagonal buffers.
	lanes int

	// What the routines read: the diagonal buffers; the slot's staged q
	// and reversed target rt, each fusedPad bytes into its padded buffer;
	// the trace, nil when untraced, else room for m+n widths with the one
	// of anti-diagonal d at trace[d-1].
	v     *[3][]int16
	q, rt *byte
	trace *int32

	// The frame while lanes is not 0: F_d (lane l of anti-diagonal d
	// holds cell F_d + l), the band of d as a lane mask (the paired
	// routine's, whose frames are 64 lanes), and the two carried
	// anti-diagonals, frame[0] the one odd d reads as the previous (the
	// other as the one before) and frame[1] the one even d reads as the
	// previous. Go moves the rows into and out of it (see fusedSlot.frame
	// and spill); the routines only load it on entry and store it on return.
	f     int
	band  uint64
	frame [2][128]int16
	// edge is the last anti-diagonal whose band the paired routine need
	// not clip to the matrix (every lane of the frame the band is found in
	// lies inside) and that does not pass limit: it checks both only
	// beyond.
	edge int
}

// fusedSlot is one extension's place on the fused routines: its state,
// its three diagonal buffers, the padded buffers its extension is staged
// into, what the rebase took off its scores, and what the register mode
// did for it (added to the Workspace's when it ends). A Workspace has two:
// the solo routine runs in the first, which also stages the extensions of
// every other kernel, and a Pool worker's paired stream in both.
type fusedSlot struct {
	st     fusedState
	v      [3][]int16
	q, rt  seq.Seq
	base   int32
	trace  *[]int32
	traced int // len(*trace) when the extension started
	modes  regModes
}

// stage lays out one extension for every kernel, once, in s's two padded
// buffers: qs is q, reversed for rev, and rt the target reversed, so that
// cell (i, j) of the extension compares qs[i-1] with rt[n-j] and the
// kernels read both forward along an anti-diagonal. For rev (a seed's left
// extension, over both prefixes reversed, paper Figs. 5-6) rt is the
// target prefix as it stands. Each copy sits fusedPad bytes into its
// buffer with fusedPad bytes of slack after it. stage reads q and t only
// inside [0, m) and [0, n); the buffers are reallocated only when their
// capacity is short.
func (s *fusedSlot) stage(q, t seq.Seq, rev bool) (qs, rt seq.Seq) {
	m, n := len(q), len(t)
	s.q = grow(s.q, m+2*fusedPad)
	s.rt = grow(s.rt, n+2*fusedPad)
	qs, rt = s.q[fusedPad:][:m], s.rt[fusedPad:][:n]
	if rev {
		seq.AppendReverse(qs[:0], q)
		copy(rt, t)
	} else {
		copy(qs, q)
		seq.AppendReverse(rt[:0], t)
	}
	return qs, rt
}

// grow returns b resized to n, reallocated only when its capacity is short.
func grow[E any](b []E, n int) []E {
	if cap(b) < n {
		return make([]E, n)
	}
	return b[:n]
}

// rowISA names the routine an int16 extension runs on. It is set once at
// package init from the CPU (see detectISA) and never changes afterwards;
// only tests flip it, to drive every variant on one host.
type rowISA int8

const (
	isaNone   rowISA = iota // no fused routine (every non-amd64 build): the vector kernel is the scalar one
	isaSSE2                 // the fused routine with 8-lane blocks, the amd64 baseline
	isaAVX2                 // the fused routine with 16-lane blocks for rows >= 32 cells
	isaAVX512               // isaAVX2 plus the register mode for bands of up to 128 cells
)

var vectorISA = detectISA()

// VectorISA names the instruction set the vector kernel runs on in this
// process: "avx512", "avx2", "sse2", or "none" where there is no fused
// routine and the vector kernel is the scalar one.
func VectorISA() string {
	return [...]string{isaNone: "none", isaSSE2: "sse2", isaAVX2: "avx2", isaAVX512: "avx512"}[vectorISA]
}

// ExtendTrace is one linear extension with its band trace: over q and t,
// or over both reversed for rev (a seed's left extension, staged once by
// fusedSlot.stage like every other extension). It runs the vector kernel
// inside its envelope (VectorEligible) on a host with a fused routine,
// the scalar one otherwise, appends to trace the width of every
// anti-diagonal after the origin in the order they were computed, and
// returns the result and the grown trace. The trace grows by
// AntiDiags-1 widths (none for an empty extension) that sum to Cells-1,
// none wider than MaxBand. Its caller is the simulated device
// (internal/core): each block passes its pair's raw prefixes or suffixes
// and replays the trace as its work accounting.
func (w *Workspace) ExtendTrace(q, t seq.Seq, rev bool, sc Scoring, x int32, trace []int32) (Result, []int32) {
	r := w.extend(q, t, rev, LinearScheme(sc), x, KernelVector, &trace)
	return r, trace
}
