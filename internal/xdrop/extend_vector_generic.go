//go:build !amd64

package xdrop

import "logan/internal/seq"

// detectISA: there is no fused routine off amd64.
func detectISA() rowISA { return isaNone }

// extendVector runs one int16-eligible extension where there is no fused
// routine: wave over the scalar row, the same result and band trace. rev
// extends over q and t reversed (a seed's left extension).
func (w *Workspace) extendVector(q, t seq.Seq, rev bool, sc Scoring, x int16, trace *[]int32) Result {
	qs, rt := w.fused[0].stage(q, t, rev)
	return wave(&w.d, qs, rt, int32(x), linearRow(sc), trace)
}

// runPaired: there is no paired routine off amd64.
func (j *poolJob) runPaired(*Workspace) bool { return false }
