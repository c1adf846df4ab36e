package sw

import (
	"fmt"
	"strings"

	"logan/internal/seq"
	"logan/internal/xdrop"
)

// Op is one alignment operation in a traceback.
type Op byte

const (
	OpMatch    Op = '='
	OpMismatch Op = 'X'
	OpInsert   Op = 'I' // gap in target (consumes query)
	OpDelete   Op = 'D' // gap in query (consumes target)
)

// GlobalAlignment is a full global alignment with traceback, the
// post-processing pass real pipelines run on *accepted* overlaps: LOGAN
// itself is score-only (paper §IV-A), so base-level alignments are
// recovered afterwards for just the pairs that survived filtering.
type GlobalAlignment struct {
	Score int32
	Ops   []Op
	Cells int64
}

// CIGAR renders the operations run-length encoded, extended CIGAR style.
func (a GlobalAlignment) CIGAR() string {
	var b strings.Builder
	i := 0
	for i < len(a.Ops) {
		j := i
		for j < len(a.Ops) && a.Ops[j] == a.Ops[i] {
			j++
		}
		fmt.Fprintf(&b, "%d%c", j-i, a.Ops[i])
		i = j
	}
	return b.String()
}

// Identity returns matches over alignment columns.
func (a GlobalAlignment) Identity() float64 {
	if len(a.Ops) == 0 {
		return 0
	}
	m := 0
	for _, op := range a.Ops {
		if op == OpMatch {
			m++
		}
	}
	return float64(m) / float64(len(a.Ops))
}

// GlobalAlignBanded computes the global (end-to-end) alignment of q and t
// with traceback, restricted to a band of half-width w around the
// length-corrected diagonal. Memory is O(len(q) * min(2w+1, len(t)));
// choose w at least the expected indel drift (X-drop's MaxBand is a sound
// choice). If the optimal path leaves the band the score is a lower
// bound; with w >= len(q)+len(t) the result is exact.
func GlobalAlignBanded(q, t seq.Seq, sc xdrop.Scoring, w int) (GlobalAlignment, error) {
	m, n := len(q), len(t)
	if w < 0 {
		return GlobalAlignment{}, fmt.Errorf("sw: negative band width %d", w)
	}
	// The band must contain the endpoint diagonal |m-n|.
	drift := m - n
	if drift < 0 {
		drift = -drift
	}
	if w < drift+1 {
		w = drift + 1
	}
	if m == 0 {
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = OpDelete
		}
		return GlobalAlignment{Score: int32(n) * sc.Gap, Ops: ops}, nil
	}
	if n == 0 {
		ops := make([]Op, m)
		for i := range ops {
			ops[i] = OpInsert
		}
		return GlobalAlignment{Score: int32(m) * sc.Gap, Ops: ops}, nil
	}

	// Row i stores cells j in [lo(i), hi(i)] with lo(i) = max(0, i-w),
	// hi(i) = min(n, i+w); the backing storage per row is 2w+1 wide.
	width := 2*w + 1
	lo := func(i int) int { return max(0, i-w) }
	hi := func(i int) int { return min(n, i+w) }
	score := make([]int32, (m+1)*width)
	dir := make([]byte, (m+1)*width) // 'D' diag, 'U' up (insert), 'L' left (delete)
	at := func(i, j int) int { return i*width + (j - lo(i)) }
	var cells int64

	for i := 0; i <= m; i++ {
		for j := lo(i); j <= hi(i); j++ {
			cells++
			idx := at(i, j)
			switch {
			case i == 0 && j == 0:
				score[idx] = 0
			case i == 0:
				score[idx] = score[at(0, j-1)] + sc.Gap
				dir[idx] = 'L'
			case j == 0:
				score[idx] = score[at(i-1, 0)] + sc.Gap
				dir[idx] = 'U'
			default:
				best := NegInf
				var d byte
				if j >= lo(i-1) && j-1 <= hi(i-1) && j-1 >= lo(i-1) {
					s := score[at(i-1, j-1)]
					if q[i-1] == t[j-1] {
						s += sc.Match
					} else {
						s += sc.Mismatch
					}
					if s > best {
						best, d = s, 'D'
					}
				}
				if j >= lo(i-1) && j <= hi(i-1) {
					if s := score[at(i-1, j)] + sc.Gap; s > best {
						best, d = s, 'U'
					}
				}
				if j-1 >= lo(i) {
					if s := score[at(i, j-1)] + sc.Gap; s > best {
						best, d = s, 'L'
					}
				}
				score[idx] = best
				dir[idx] = d
			}
		}
	}

	out := GlobalAlignment{Score: score[at(m, n)], Cells: cells}
	// Trace back from (m, n).
	var rev []Op
	i, j := m, n
	for i > 0 || j > 0 {
		switch dir[at(i, j)] {
		case 'D':
			if q[i-1] == t[j-1] {
				rev = append(rev, OpMatch)
			} else {
				rev = append(rev, OpMismatch)
			}
			i, j = i-1, j-1
		case 'U':
			rev = append(rev, OpInsert)
			i--
		case 'L':
			rev = append(rev, OpDelete)
			j--
		default:
			return out, fmt.Errorf("sw: traceback escaped the band at (%d,%d); widen w", i, j)
		}
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	out.Ops = rev
	return out, nil
}
