//go:build !amd64

package xdrop

import "logan/internal/seq"

// detectISA: architectures without a fused routine run the portable rows.
func detectISA() rowISA { return isaPortable }

// extendVector runs one int16 extension: wave over the portable rows.
func (w *Workspace) extendVector(q, t seq.Seq, sc Scoring, x int16, trace *[]int32) Result {
	return wave(&w.v, &w.rt, q, t, x, w.vectorKernelFor(sc), trace)
}
