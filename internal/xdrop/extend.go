package xdrop

import "logan/internal/seq"

// Result reports one X-drop extension: the best semi-global prefix score,
// where it was achieved, and the work the dynamic program performed. The
// work counters feed the experiment harness (cells -> GCUPS and CPU time
// models) and the band statistics drive LOGAN's thread scheduling.
type Result struct {
	Score     int32 // best alignment score seen (>= 0)
	QueryEnd  int   // query prefix length achieving Score
	TargetEnd int   // target prefix length achieving Score
	Cells     int64 // DP cells updated
	AntiDiags int   // anti-diagonal iterations executed
	MaxBand   int   // widest anti-diagonal encountered
	SumBand   int64 // sum of anti-diagonal widths (SumBand/AntiDiags = mean)
}

// ExtendExhaustive computes the same objective with no pruning: the exact
// maximum semi-global prefix score by filling the full m x n dynamic
// program. It is quadratic and exists as the oracle for tests and for the
// "full DP" comparisons; an X-drop extension with sufficiently large x
// must return exactly this score.
func ExtendExhaustive(q, t seq.Seq, sc Scoring) Result {
	m, n := len(q), len(t)
	res := Result{}
	if m == 0 || n == 0 {
		return res
	}
	prev := make([]int32, n+1)
	cur := make([]int32, n+1)
	best := int32(0)
	bi, bj := 0, 0
	for j := 0; j <= n; j++ {
		prev[j] = int32(j) * sc.Gap
	}
	for i := 1; i <= m; i++ {
		cur[0] = int32(i) * sc.Gap
		for j := 1; j <= n; j++ {
			s := prev[j-1]
			if q[i-1] == t[j-1] {
				s += sc.Match
			} else {
				s += sc.Mismatch
			}
			if v := prev[j] + sc.Gap; v > s {
				s = v
			}
			if v := cur[j-1] + sc.Gap; v > s {
				s = v
			}
			cur[j] = s
			if s > best {
				best, bi, bj = s, i, j
			}
		}
		prev, cur = cur, prev
	}
	res.Score = best
	res.QueryEnd = bi
	res.TargetEnd = bj
	res.Cells = int64(m) * int64(n)
	res.AntiDiags = m + n + 1
	res.MaxBand = min(m, n) + 1
	return res
}
