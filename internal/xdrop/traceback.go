package xdrop

import (
	"fmt"
	"slices"

	"logan/internal/seq"
)

// Op is one column of a base-level alignment, as its extended-CIGAR
// letter.
type Op byte

const (
	OpMatch    Op = '=' // equal query and target bases
	OpMismatch Op = 'X' // a substitution
	OpInsert   Op = 'I' // a query base against a gap in the target
	OpDelete   Op = 'D' // a target base against a gap in the query
)

// The source of an interior cell's score, one byte per cell in the
// Workspace's direction arena.
const (
	fromDiag byte = iota // (i-1, j-1)
	fromUp               // (i-1, j): consumes a query base
	fromLeft             // (i, j-1): consumes a target base
)

// dirRow locates one anti-diagonal's directions in the arena: the i of
// its first interior cell and that cell's arena offset.
type dirRow struct{ lo, off int }

// opsRow is the linear int32 row kernel with direction recording:
// linearRow's recurrence, tie order included (diagonal before up before
// left), that also stores which source each interior cell's score came
// from. wave hands the row qs = q[lo-1:] and ts = rt[n-d+lo:] of the
// staged q and rt, so the row's first cell lo and its anti-diagonal d
// follow from how far those slices' capacities fall short of q's and rt's.
type opsRow struct {
	linearRow
	w              *Workspace
	qCap, rtCap, n int
}

func (r opsRow) row(d3, d2m1, out []int32, qs, ts seq.Seq, thr, best int32) (int32, int) {
	kn := len(out)
	lo := r.qCap - cap(qs) + 1
	w := r.w
	off := len(w.dirs)
	w.rows[r.n+lo-(r.rtCap-cap(ts))] = dirRow{lo: lo, off: off}
	w.dirs = slices.Grow(w.dirs, kn)[:off+kn]
	dirs := w.dirs[off:][:kn]
	d3 = d3[:kn]
	d2 := d2m1[1:][:kn]
	qs = qs[:kn]
	ts = ts[:kn]
	match, mismatch, gap := r.Match, r.Mismatch, r.Gap
	up := d2m1[0]
	bestK := -1
	for k := 0; k < kn; k++ {
		add := mismatch
		if qs[k] == ts[k] {
			add = match
		}
		s := d3[k] + add
		cur := d2[k]
		g := max(up, cur) + gap
		// The direction from sign bits, not branches: which source wins
		// is data no branch predictor learns. left is 1 when the left
		// source beats up, viaGap 1 when the gap beats the diagonal.
		left := uint64(int64(up)-int64(cur)) >> 63
		viaGap := uint64(int64(s)-int64(g)) >> 63
		dirs[k] = byte(viaGap << left)
		up = cur
		s = max(s, g)
		if s > best {
			best = s
			bestK = k
		}
		if s < thr {
			s = NegInf
		}
		out[k] = s
	}
	return best, bestK
}

// extendOps is the scalar linear Workspace.extend with traceback: the same wavefront over
// opsRow, then a walk from the best cell back to the origin that appends
// the alignment's columns to ops, last column first. rev extends over q
// and t reversed, as extend does. A live cell's source is live, so the
// walk reads only directions this extension wrote.
func (w *Workspace) extendOps(q, t seq.Seq, rev bool, sc Scoring, x int32, ops []Op) (Result, []Op) {
	qs, rt := w.fused[0].stage(q, t, rev)
	n := len(rt)
	if need := len(qs) + n + 1; cap(w.rows) < need {
		w.rows = make([]dirRow, need)
	}
	w.rows = w.rows[:cap(w.rows)]
	w.dirs = w.dirs[:0]
	r := wave(&w.d, qs, rt, x, opsRow{linearRow(sc), w, cap(qs), cap(rt), n}, nil)
	i, j := r.QueryEnd, r.TargetEnd
	for i > 0 && j > 0 {
		row := w.rows[i+j]
		switch w.dirs[row.off+i-row.lo] {
		case fromDiag:
			i, j = i-1, j-1
			ops = append(ops, column(qs[i], rt[n-1-j]))
		case fromUp:
			i--
			ops = append(ops, OpInsert)
		default:
			j--
			ops = append(ops, OpDelete)
		}
	}
	// The matrix borders are gap runs out of the origin.
	for ; i > 0; i-- {
		ops = append(ops, OpInsert)
	}
	for ; j > 0; j-- {
		ops = append(ops, OpDelete)
	}
	return r, ops
}

// column labels an aligned base pair.
func column(a, b byte) Op {
	if a == b {
		return OpMatch
	}
	return OpMismatch
}

// ExtendSeedOps is the linear seed-and-extend with traceback: the
// SeedResult is the scalar kernel's, field for field, and ops grows by
// the alignment's columns over [QBegin,QEnd) x [TBegin,TEnd) in order. They
// come from the wavefront that computed the score, so they rescore to
// Score exactly (Rescore). Directions cost one byte per DP cell, held in
// the workspace and reused across calls.
func (w *Workspace) ExtendSeedOps(q, t seq.Seq, qPos, tPos, seedLen int, sc Scoring, x int32, ops []Op) (SeedResult, []Op, error) {
	r, err := w.extendSeed(q, t, qPos, tPos, seedLen, LinearScheme(sc), x, KernelScalar, &ops)
	return r, ops, err
}

// seedOps is extendSeed's traceback path for the seed at (qPos, tPos):
// the left extension's columns (it ran over the reversed prefixes, so its
// last-first walk is already forward order), the seed's, then the right
// extension's, reversed.
func (w *Workspace) seedOps(q, t seq.Seq, qPos, tPos, seedLen int, sc Scoring, x int32, ops *[]Op) (left, right Result) {
	qEnd, tEnd := qPos+seedLen, tPos+seedLen
	left, *ops = w.extendOps(q[:qPos], t[:tPos], true, sc, x, *ops)
	for k := range seedLen {
		*ops = append(*ops, column(q[qPos+k], t[tPos+k]))
	}
	mark := len(*ops)
	right, *ops = w.extendOps(q[qEnd:], t[tEnd:], false, sc, x, *ops)
	slices.Reverse((*ops)[mark:])
	return left, right
}

// Rescore scores alignment columns under sc against the sequences they
// align. The columns must consume exactly q and t, each = or X column
// sitting on equal or unequal bases; otherwise Rescore returns an error.
// It is how a caller checks a CIGAR against the score reported with it.
func Rescore(ops []Op, q, t seq.Seq, sc Scoring) (int32, error) {
	var score int32
	i, j := 0, 0
	for k, op := range ops {
		di, dj, s := 1, 1, sc.Gap
		switch op {
		case OpMatch:
			s = sc.Match
		case OpMismatch:
			s = sc.Mismatch
		case OpInsert:
			dj = 0
		case OpDelete:
			di = 0
		default:
			return 0, fmt.Errorf("xdrop: column %d has unknown op %q", k, op)
		}
		if i+di > len(q) || j+dj > len(t) || di+dj == 2 && column(q[i], t[j]) != op {
			return 0, fmt.Errorf("xdrop: column %d (%c) does not fit the sequences at (%d, %d)", k, op, i, j)
		}
		score += s
		i, j = i+di, j+dj
	}
	if i != len(q) || j != len(t) {
		return 0, fmt.Errorf("xdrop: columns consume (%d, %d) of (%d, %d) bases", i, j, len(q), len(t))
	}
	return score, nil
}
