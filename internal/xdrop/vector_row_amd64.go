//go:build amd64

package xdrop

import "logan/internal/simd"

// vectorRowBlocks dispatches the 8-lane block kernel to the SSE2 assembly
// implementation (vector_row_amd64.s). SSE2 is part of the amd64 baseline,
// so no runtime feature detection is needed. The match/mismatch lane adds
// are taken from the blend table's all-ones and all-zeros entries; the
// assembly rebuilds the broadcast vectors itself, which is cheaper than
// one 4 KiB table per scheme and identical in effect.
func vectorRowBlocks(d3, d2m1, out []int16, qs, ts []byte, blocks int, tab *simd.BlendTable, gw, tw int) int {
	return vectorRowBlocksSSE(d3, d2m1, out, qs, ts, blocks,
		int(tab[255][0]), int(tab[0][0]), gw, tw, int(negInf16))
}

// vectorRowBlocksSSE is implemented in vector_row_amd64.s. It processes
// blocks*8 interior cells of one anti-diagonal with SSE2 128-bit integer
// instructions — the real form of the 8×int16 lane model of the
// portable kernel — and returns the maximum stored (post-clamp) value. It is bit-identical to vectorRowBlocksPortable on every input
// (pinned by TestVectorRowBlocksSSE and the kernel fuzz target).
//
//go:noescape
func vectorRowBlocksSSE(d3, d2m1, out []int16, qs, ts []byte, blocks, match, mism, gw, tw, ninf int) int
