// Package sw provides the alignment baselines the paper compares X-drop
// against: the two GPU comparators of Fig. 12 — a CUDASW++-like
// full-matrix kernel and a manymap-like fixed-band seed-extension kernel,
// implemented on the simulated device — and their exact oracles,
// Smith-Waterman local alignment (§I) and a fixed-band Smith-Waterman
// (the "banded" search space of Fig. 2). No pipeline aligns with it.
package sw

import (
	"math"

	"logan/internal/seq"
	"logan/internal/xdrop"
)

// NegInf mirrors the xdrop sentinel for banded variants.
const NegInf int32 = math.MinInt32 / 2

// Result is a score-only alignment outcome with work accounting.
type Result struct {
	Score     int32
	QueryEnd  int // local/global end positions (prefix lengths)
	TargetEnd int
	Cells     int64
}

// Local computes the Smith-Waterman local alignment score of q and t with
// linear gaps, in O(min memory) two-row form.
func Local(q, t seq.Seq, sc xdrop.Scoring) Result {
	m, n := len(q), len(t)
	if m == 0 || n == 0 {
		return Result{}
	}
	prev := make([]int32, n+1)
	cur := make([]int32, n+1)
	var best int32
	bi, bj := 0, 0
	for i := 1; i <= m; i++ {
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
			if s < 0 {
				s = 0
			}
			cur[j] = s
			if s > best {
				best, bi, bj = s, i, j
			}
		}
		prev, cur = cur, prev
		cur[0] = 0
	}
	return Result{Score: best, QueryEnd: bi, TargetEnd: bj, Cells: int64(m) * int64(n)}
}

// Banded computes Smith-Waterman restricted to a fixed band of half-width w
// around the main diagonal — the classic banded search space the paper
// contrasts with X-drop's adaptive band (Fig. 2). Cells outside the band
// are treated as unreachable.
func Banded(q, t seq.Seq, sc xdrop.Scoring, w int) Result {
	m, n := len(q), len(t)
	if m == 0 || n == 0 || w < 0 {
		return Result{}
	}
	// Row 0 and column 0 of the Smith-Waterman matrix are all zeros
	// (alignments may start anywhere); cells outside the band are
	// unreachable.
	prev := make([]int32, n+1)
	cur := make([]int32, n+1)
	var best int32
	bi, bj := 0, 0
	var cells int64
	for i := 1; i <= m; i++ {
		lo, hi := i-w, i+w
		if lo < 1 {
			lo = 1
		}
		if hi > n {
			hi = n
		}
		for j := range cur {
			cur[j] = NegInf
		}
		cur[0] = 0
		for j := lo; j <= hi; j++ {
			s := prev[j-1]
			if s > NegInf {
				if q[i-1] == t[j-1] {
					s += sc.Match
				} else {
					s += sc.Mismatch
				}
			}
			if v := prev[j]; v > NegInf && v+sc.Gap > s {
				s = v + sc.Gap
			}
			if v := cur[j-1]; v > NegInf && v+sc.Gap > s {
				s = v + sc.Gap
			}
			if s < 0 {
				s = 0
			}
			cur[j] = s
			if s > best {
				best, bi, bj = s, i, j
			}
			cells++
		}
		prev, cur = cur, prev
	}
	return Result{Score: best, QueryEnd: bi, TargetEnd: bj, Cells: cells}
}
