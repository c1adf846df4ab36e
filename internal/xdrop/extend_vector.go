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

// VectorEligible reports whether the 8-lane int16 kernel can run this
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

// blendTab returns the workspace's cached compare-blend table for this
// (match, mismatch) pair, building it on first use. Batches share a
// scoring configuration, so the steady state is one pointer compare.
func (w *Workspace) blendTab(match, mismatch int16) *simd.BlendTable {
	if w.tab == nil || w.tabMatch != match || w.tabMismatch != mismatch {
		w.tab = simd.NewBlendTable(match, mismatch)
		w.tabMatch, w.tabMismatch = match, mismatch
	}
	return w.tab
}

// ExtendVector is the 8-wide int16 lane-block form of Workspace.Extend:
// scores, extents and work counters are bit-identical to the scalar
// kernel (and so to ExtendReference) on every input. Inputs outside the
// vector envelope (VectorEligible) fall back to the scalar kernel.
//
// Per 8-cell block the interior update is branch-lean: the match/mismatch
// substitution add is one simd.EqMask64 SWAR compare over two 8-byte
// sequence words plus one 16-byte load from the batch-specialized
// compare-blend table (simd.BlendTable), replacing eight data-dependent
// byte compares — the one unpredictable branch of the scalar loop. The
// gap sources are the diagonal's int16 loads with the "up" value carried
// in a register (the lane shift falls out of the anti-diagonal memory
// layout), and the three-way max, X-drop clamp and best tracking run per
// lane in the fused block loop. Score-offset rebasing (see the constants
// above) keeps lane values exact in int16, so no saturating clamp can
// ever touch a live score.
func (w *Workspace) ExtendVector(q, t seq.Seq, sc Scoring, x int32) Result {
	if !VectorEligible(sc, x) {
		return w.Extend(q, t, sc, x)
	}
	tab := w.blendTab(int16(sc.Match), int16(sc.Mismatch))
	return wave(&w.v, &w.rt, q, t, int16(x), vectorKernel{tab: tab, gap: int16(sc.Gap)})
}

// vectorKernel is the int16 row kernel: the batch's compare-blend table
// and gap penalty are its only per-extension state.
type vectorKernel struct {
	tab *simd.BlendTable
	gap int16
}

func (vectorKernel) planes() int { return 1 }

func (v vectorKernel) gaps() (first, rest int16) { return v.gap, v.gap }

// row computes the interior cells of one anti-diagonal: d3 holds
// the substitution sources and out receives the new diagonal (both of
// length kn), d2m1 holds the gap sources of the previous diagonal shifted
// one cell down (length kn+1: the "up" source of cell k is d2m1[k], the
// "left" source is d2m1[k+1] — the lane shift of the classic striped
// kernel falls out of the anti-diagonal memory layout as two overlapping
// loads), and qs/ts are the forward-read sequence spans. It returns the
// updated running best and the index of the last strict improvement (-1
// if none), preserving the scalar kernel's tie-breaking scan order
// exactly.
//
// Full 8-lane blocks go through vectorRowBlocks (SSE2 assembly on amd64,
// the portable lane loop elsewhere), which tracks only the running
// maximum — not its position. The running max updates only on strict
// increase, so its final update happened at the FIRST cell holding the
// row maximum; that cell's stored value is unclamped (nb > nbIn >= best-x
// means it cleared the X-drop threshold), so the position is recovered by
// a post-scan that runs only on rows that improve the best.
func (v vectorKernel) row(d3, d2m1, out []int16, qs, ts seq.Seq, thr, best int16) (int16, int) {
	tab, gw, tw, nb := v.tab, int(v.gap), int(thr), int(best)
	kn := len(out)
	nbIn := nb
	blocks := kn / simd.Lanes
	if blocks > 0 {
		if rm := vectorRowBlocks(d3, d2m1, out, qs, ts, blocks, tab, gw, tw); rm > nb {
			nb = rm
		}
	}
	// Scalar tail for the remaining kn mod 8 cells; the blend table's
	// all-ones and all-zeros entries supply the match/mismatch adds.
	if k := blocks * simd.Lanes; k < kn {
		nw := int(negInf16)
		up := int(d2m1[k])
		for ; k < kn; k++ {
			add := int(tab[0][0])
			if qs[k] == ts[k] {
				add = int(tab[255][0])
			}
			c := int(d2m1[k+1])
			g := up
			if c > g {
				g = c
			}
			up = c
			s := int(d3[k]) + add
			if g+gw > s {
				s = g + gw
			}
			if s > nb {
				nb = s
			}
			if s < tw {
				s = nw
			}
			out[k] = int16(s)
		}
	}
	bk := -1
	if nb > nbIn {
		for i := range out {
			if int(out[i]) == nb {
				bk = i
				break
			}
		}
	}
	return int16(nb), bk
}

// vectorRowBlocksPortable is the pure-Go form of the 8-lane block kernel:
// the reference for the amd64 assembly (pinned bit-identical by test and
// fuzz differentials) and the implementation on every other architecture.
// It processes blocks*8 cells and returns the maximum stored value —
// pruned cells store negInf16, so they can never win. The match/mismatch
// substitution add is one simd.EqMask64 SWAR compare over two 8-byte
// sequence words plus one 16-byte load from the batch-specialized
// compare-blend table. All lane arithmetic runs in full-width registers
// (loads sign-extend, stores truncate): values are exact in int16 range
// by the rebase invariant, and 16-bit ALU ops would hit
// length-changing-prefix stalls on x86.
func vectorRowBlocksPortable(d3, d2m1, out []int16, qs, ts []byte, blocks int, tab *simd.BlendTable, gw, tw int) int {
	kn := blocks * simd.Lanes
	d3 = d3[:kn]
	d2m1 = d2m1[:kn+1]
	out = out[:kn]
	qs = qs[:kn]
	ts = ts[:kn]
	nw := int(negInf16)
	rm := nw
	up := int(d2m1[0])
	for k := 0; k+simd.Lanes <= kn; k += simd.Lanes {
		av := &tab[simd.EqMask64(
			binary.LittleEndian.Uint64(qs[k:]),
			binary.LittleEndian.Uint64(ts[k:]))]
		d3b := (*[simd.Lanes]int16)(d3[k:])
		d2b := (*[simd.Lanes + 1]int16)(d2m1[k:])
		ob := (*[simd.Lanes]int16)(out[k:])
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
	return rm
}
