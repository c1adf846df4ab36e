//go:build !amd64

package xdrop

import "logan/internal/seq"

// detectISA: there is no fused routine off amd64.
func detectISA() rowISA { return isaNone }

// extendVector runs one int16-eligible extension where there is no fused
// routine: wave over the scalar row, the same result and band trace.
func (w *Workspace) extendVector(q, t seq.Seq, sc Scoring, x int16, trace *[]int32) Result {
	return wave(&w.d, &w.rt, q, t, int32(x), linearRow(sc), trace)
}
