package xdrop

import (
	"encoding/binary"

	"logan/internal/seq"
	"logan/internal/simd"
)

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

// rowISA names the routine an int16 extension runs on. It is set once at
// package init from the CPU (see detectISA) and never changes afterwards;
// only tests flip it, to drive every variant on one host.
type rowISA int8

const (
	isaPortable rowISA = iota // wave over the Go rows: every non-amd64 build, and the spec
	isaSSE2                   // the fused routine with 8-lane blocks, the amd64 baseline
	isaAVX2                   // the fused routine with 16-lane blocks for rows >= 32 cells
	isaAVX512                 // isaAVX2 plus the register mode for bands of up to 64 cells
)

var vectorISA = detectISA()

// VectorISA names the instruction set the vector kernel runs on in this
// process: "avx512", "avx2", "sse2" or "portable".
func VectorISA() string {
	return [...]string{isaPortable: "portable", isaSSE2: "sse2", isaAVX2: "avx2", isaAVX512: "avx512"}[vectorISA]
}

// vectorKernelFor returns the portable int16 row kernel for sc, rebuilding
// the workspace's 4 KiB compare-blend table when the scoring changed.
// Batches share a scoring configuration, so the steady state is one
// compare.
func (w *Workspace) vectorKernelFor(sc Scoring) vectorKernel {
	if w.vsc != sc || w.tab == nil {
		w.vsc = sc
		w.tab = simd.NewBlendTable(int16(sc.Match), int16(sc.Mismatch))
	}
	return vectorKernel{tab: w.tab,
		match: int16(sc.Match), mismatch: int16(sc.Mismatch), gap: int16(sc.Gap)}
}

// ExtendVector is the int16 SIMD form of Workspace.Extend: scores, extents
// and work counters are bit-identical to the scalar kernel (and so to
// ExtendReference) on every input. Inputs outside the vector envelope
// (VectorEligible) fall back to the scalar kernel. Score-offset rebasing
// (see the constants above) keeps lane values exact in int16, so no
// saturating clamp can ever touch a live score.
func (w *Workspace) ExtendVector(q, t seq.Seq, sc Scoring, x int32) Result {
	if !VectorEligible(sc, x) {
		return w.Extend(q, t, sc, x)
	}
	return w.extendVector(q, t, sc, int16(x), nil)
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
		r = w.extendVector(q, t, sc, int16(x), &trace)
	} else {
		r = wave(&w.d, &w.rt, q, t, x, linearRow(sc), &trace)
	}
	return r, trace
}

// vectorKernel is the int16 row kernel of wave: the portable form of the
// fused routine, and the spec that routine is pinned to. Its row method
// computes a whole anti-diagonal in one call: d3 holds the substitution
// sources and out receives the new diagonal (both of length kn), d2m1
// holds the gap sources of the previous diagonal shifted one cell down
// (length kn+1: the "up" source of cell k is d2m1[k], the "left" source is
// d2m1[k+1] — the lane shift of the classic striped kernel falls out of
// the anti-diagonal memory layout as two overlapping loads), and qs/ts are
// the forward-read sequence spans. It returns the updated running best and
// the index of the first cell holding it (-1 and best unchanged if the row
// did not improve on it), the scalar kernel's tie order exactly.
//
// Rows of kn >= simd.Lanes run vectorRowPortable's 8-lane blocks,
// narrower rows rowNarrow. A row that is not a lane multiple ends in one
// block re-anchored at kn - lanes that overlaps the previous one: a cell
// depends only on d3[k], d2m1[k], d2m1[k+1], qs[k] and ts[k], and out never
// aliases a source (the three rolling buffers of wave), so recomputing a
// cell stores the same value again — and nothing outside [0, kn) of
// d3/out/qs/ts and [0, kn] of d2m1 is read or written. The fused routine
// blocks its rows the same way, with 16 lanes on AVX2 for wide rows.
type vectorKernel struct {
	tab                  *simd.BlendTable
	match, mismatch, gap int16
}

func (vectorKernel) planes() int { return 1 }

func (v vectorKernel) gaps() (first, rest int16) { return v.gap, v.gap }

func (v vectorKernel) row(d3, d2m1, out []int16, qs, ts seq.Seq, thr, best int16) (int16, int) {
	if len(out) < simd.Lanes {
		return v.rowNarrow(d3, d2m1, out, qs, ts, thr, best)
	}
	return vectorRowPortable(d3, d2m1, out, qs, ts, v.tab, v.gap, thr, best)
}

// rowNarrow is the scalar loop for rows narrower than one vector
// (kn < simd.Lanes): the band's first and last few anti-diagonals.
func (v vectorKernel) rowNarrow(d3, d2m1, out []int16, qs, ts seq.Seq, thr, best int16) (int16, int) {
	kn := len(out)
	d3, d2, qs, ts := d3[:kn], d2m1[1:][:kn], qs[:kn], ts[:kn]
	up := d2m1[0]
	bestK := -1
	for k := range out {
		add := v.mismatch
		if qs[k] == ts[k] {
			add = v.match
		}
		s := d3[k] + add
		g := max(up, d2[k]) + v.gap
		up = d2[k]
		if g > s {
			s = g
		}
		if s > best {
			best, bestK = s, k
		}
		if s < thr {
			s = negInf16
		}
		out[k] = s
	}
	return best, bestK
}

// vectorRowPortable is the pure-Go whole-row routine, the implementation
// on every architecture without a fused routine. It needs
// kn >= simd.Lanes. Per 8-cell block the match/mismatch substitution add
// is one simd.EqMask64 SWAR compare over two 8-byte sequence words plus one
// 16-byte load from the batch-specialized compare-blend table. All lane
// arithmetic runs in full-width registers (loads sign-extend, stores
// truncate): values are exact in int16 range by the rebase invariant, and
// 16-bit ALU ops would hit length-changing-prefix stalls on x86.
func vectorRowPortable(d3, d2m1, out []int16, qs, ts []byte, tab *simd.BlendTable, gap, thr, best int16) (int16, int) {
	kn := len(out)
	d3, d2m1, qs, ts = d3[:kn], d2m1[:kn+1], qs[:kn], ts[:kn]
	gw, tw, nw := int(gap), int(thr), int(negInf16)
	rm := nw
	for k := 0; k < kn; k += simd.Lanes {
		k = min(k, kn-simd.Lanes) // the final block overlaps its predecessor
		av := &tab[simd.EqMask64(
			binary.LittleEndian.Uint64(qs[k:]),
			binary.LittleEndian.Uint64(ts[k:]))]
		d3b := (*[simd.Lanes]int16)(d3[k:])
		d2b := (*[simd.Lanes + 1]int16)(d2m1[k:])
		ob := (*[simd.Lanes]int16)(out[k:])
		up := int(d2b[0])
		for l := 0; l < simd.Lanes; l++ {
			c := int(d2b[l+1])
			g := up
			if c > g {
				g = c
			}
			up = c
			s := int(d3b[l]) + int(av[l])
			if g+gw > s {
				s = g + gw
			}
			if s < tw {
				s = nw
			}
			if s > rm {
				rm = s
			}
			ob[l] = int16(s)
		}
	}
	// The running best moves only on strict increase, so it would have
	// settled on the first cell holding the row maximum; that cell cleared
	// the threshold (rm > best >= thr), so its stored value is unclamped.
	if rm <= int(best) {
		return best, -1
	}
	for i := 0; ; i++ {
		if int(out[i]) == rm {
			return int16(rm), i
		}
	}
}
