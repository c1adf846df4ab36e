//go:build amd64

package xdrop

import (
	"logan/internal/seq"
	"logan/internal/simd"
)

// detectISA picks the widest assembly row the CPU and the OS support. SSE2
// is part of the amd64 baseline; AVX2 needs the CPUID/XGETBV check.
func detectISA() rowISA {
	if cpuHasAVX2() {
		return isaAVX2
	}
	return isaSSE2
}

func (v vectorKernel) row(d3, d2m1, out []int16, qs, ts seq.Seq, thr, best int16) (int16, int) {
	kn := len(out)
	switch {
	case kn < simd.Lanes:
		return v.rowNarrow(d3, d2m1, out, qs, ts, thr, best)
	case vectorISA == isaPortable:
		return vectorRowPortable(d3, d2m1, out, qs, ts, v.tab, v.gap, thr, best)
	case vectorISA == isaAVX2 && kn >= 2*simd.Lanes:
		return vectorRowAVX2(&d3[0], &d2m1[0], &out[0], &qs[0], &ts[0], kn, v.c, thr, best)
	}
	return vectorRowSSE2(&d3[0], &d2m1[0], &out[0], &qs[0], &ts[0], kn, v.c, thr, best)
}

// vectorRowSSE2 and vectorRowAVX2 (vector_row_amd64.s) are the whole-row
// routines: all kn interior cells of one anti-diagonal in 8-lane (kn >= 8)
// or 16-lane (kn >= 16) blocks, the last one overlapped, then the
// horizontal maximum and — only when it beats best — the scan of out for
// the first cell holding it. Both are bit-identical to vectorRowPortable on
// every input (TestVectorRow, FuzzVectorRow) and touch nothing outside
// [0, kn) of d3/out/qs/ts and [0, kn] of d2m1 (TestVectorRowGuardPages).
//
//go:noescape
func vectorRowSSE2(d3, d2m1, out *int16, qs, ts *byte, kn int, c *rowConsts, thr, best int16) (nb int16, pos int)

//go:noescape
func vectorRowAVX2(d3, d2m1, out *int16, qs, ts *byte, kn int, c *rowConsts, thr, best int16) (nb int16, pos int)

// cpuHasAVX2 reports whether AVX2 instructions may be used: CPUID leaf 7
// EBX bit 5, and the OS saves the YMM state (leaf 1 OSXSAVE and AVX, XCR0
// bits 1 and 2).
func cpuHasAVX2() bool
