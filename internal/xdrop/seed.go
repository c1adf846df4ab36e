package xdrop

import "logan/internal/seq"

// SeedResult is the outcome of a seed-and-extend alignment: the seed is
// assumed exact, the left and right extensions are X-drop extensions away
// from it (paper Fig. 5), and the combined score and extents describe the
// full alignment.
type SeedResult struct {
	Left, Right  Result
	SeedLen      int
	Score        int32 // Left.Score + Right.Score + SeedLen*Match
	QBegin, QEnd int   // aligned query interval [QBegin, QEnd)
	TBegin, TEnd int   // aligned target interval [TBegin, TEnd)
}

// Cells returns the total DP cells updated by both extensions.
func (r SeedResult) Cells() int64 { return r.Left.Cells + r.Right.Cells }

// ExtendSeed splits the pair at the seed (paper Fig. 5) and extends in both
// directions under linear scoring, on a pooled Workspace.
func ExtendSeed(q, t seq.Seq, qPos, tPos, seedLen int, sc Scoring, x int32) (SeedResult, error) {
	return extendSeedPooled(q, t, qPos, tPos, seedLen, LinearScheme(sc), x)
}
