//go:build !amd64

package xdrop

import (
	"logan/internal/seq"
	"logan/internal/simd"
)

// detectISA: architectures without an assembly row run the portable one.
func detectISA() rowISA { return isaPortable }

func (v vectorKernel) row(d3, d2m1, out []int16, qs, ts seq.Seq, thr, best int16) (int16, int) {
	if len(out) < simd.Lanes {
		return v.rowNarrow(d3, d2m1, out, qs, ts, thr, best)
	}
	return vectorRowPortable(d3, d2m1, out, qs, ts, v.tab, v.gap, thr, best)
}
