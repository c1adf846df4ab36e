// Package ksw2 reimplements the Z-drop extension alignment of Suzuki &
// Kasahara as shipped in ksw2, minimap2's alignment kernel — the CPU
// baseline of the paper's Table III / Fig. 9. The recurrence follows the
// ksw_extz reference implementation: affine gaps, row-wise dynamic
// programming over the target with an adaptive band, and the Z-drop
// termination rule that penalizes divergence from the best cell's diagonal.
//
// The SSE2 vectorization of the original is represented in two ways: the
// inner loop's operation counts are reported per row at 128-bit vector
// granularity (see RowVectorOps), and the Skylake CPU model in
// internal/perfmodel converts them into time with the cache-pressure curve
// that collapses ksw2's throughput once the band outgrows L1 — the effect
// behind Table III's 3213-second X=5000 row.
package ksw2

import (
	"math"

	"logan/internal/seq"
	"logan/internal/simd"
)

// NegInf is the dead-cell sentinel, kept far from the int32 edge.
const NegInf int32 = math.MinInt32 / 2

// Params is the ksw2 scoring configuration. Gap penalties are positive
// magnitudes, as in ksw2's API: a gap of length l costs GapOpen + l*GapExt.
type Params struct {
	Match    int32 // match score (ksw2 'a', positive)
	Mismatch int32 // mismatch penalty (ksw2 'b', positive magnitude)
	GapOpen  int32 // gap open penalty (positive)
	GapExt   int32 // gap extend penalty (positive)
	ZDrop    int32 // Z-drop threshold; <= 0 disables
}

// MinimapParams returns minimap2's default DNA scoring (a=2, b=4, q=4,
// e=2) with the given Z-drop threshold, the configuration the paper
// benchmarks against.
func MinimapParams(zdrop int32) Params {
	return Params{Match: 2, Mismatch: 4, GapOpen: 4, GapExt: 2, ZDrop: zdrop}
}

// Result reports one Z-drop extension.
type Result struct {
	Score     int32 // best extension score (>= 0, score at origin)
	QueryEnd  int   // query prefix length of the best cell
	TargetEnd int   // target prefix length of the best cell
	ZDropped  bool  // true if the Z-drop rule ended the extension
	Cells     int64 // DP cells updated
	Rows      int   // target rows processed
	MaxBand   int   // widest row band
	SumBand   int64 // total band width over rows
	VecOps    int64 // 128-bit vector operations the SSE2 kernel would issue
}

// RowVectorOps is the number of 128-bit operations per DP cell chunk the
// SSE2 kernel issues per 8 cells: loads, shifts, compare/blend for the
// score, adds and maxes for H/E/F, and the store.
const RowVectorOps = 10

// ExtendZ extends the alignment of q and t from their origins, maximizing
// the affine-gap score over all prefix pairs, with ksw2's Z-drop rule: let
// (i*, j*) be the best cell so far; a cell (i, j) is dead when
//
//	H(i,j) < H(i*,j*) - zdrop - |(i-i*) - (j-j*)| * GapExt
//
// and the extension stops when a whole row dies or the row maximum
// triggers the rule. Dead cells at the row edges shrink the band, so the
// explored area grows with ZDrop — linearly for related sequences — which
// is the cost behaviour Table III exhibits.
func ExtendZ(q, t seq.Seq, p Params) Result {
	m, n := len(q), len(t)
	res := Result{}
	if m == 0 || n == 0 {
		return res
	}

	// H[j], E[j] for the previous row; j indexes query prefix length.
	h := make([]int32, m+1)
	e := make([]int32, m+1)
	hNew := make([]int32, m+1)
	eNew := make([]int32, m+1)

	// Row 0: leading query gaps.
	h[0] = 0
	e[0] = NegInf
	best := int32(0)
	bi, bj := 0, 0
	st, en := 0, m
	for j := 1; j <= m; j++ {
		h[j] = -(p.GapOpen + int32(j)*p.GapExt)
		e[j] = NegInf
		if p.ZDrop > 0 && h[j] < -p.ZDrop {
			en = j
			break
		}
	}
	for j := en + 1; j <= m; j++ {
		h[j] = NegInf
		e[j] = NegInf
	}
	res.Rows = 1
	res.Cells = int64(en + 1)
	res.SumBand = int64(en + 1)
	res.MaxBand = en + 1

	for i := 1; i <= n; i++ {
		// Row i: H(i, j) over the band [st, en].
		ti := t[i-1]
		// First cell of the band.
		rowBest := NegInf
		rowBestJ := st
		f := NegInf // F(i, st-1) is unreachable inside the band
		for j := st; j <= en; j++ {
			var diag int32 = NegInf
			if j >= 1 {
				diag = h[j-1]
				if diag > NegInf {
					if q[j-1] == ti {
						diag += p.Match
					} else {
						diag -= p.Mismatch
					}
				}
			} else {
				// j == 0: leading target gaps.
				diag = NegInf
			}
			// E: gap in the query direction (from the row above).
			ev := NegInf
			if hv := h[j]; hv > NegInf {
				ev = hv - p.GapOpen - p.GapExt
			}
			if e[j] > NegInf && e[j]-p.GapExt > ev {
				ev = e[j] - p.GapExt
			}
			// F: gap in the target direction (left neighbor, this row).
			score := diag
			if ev > score {
				score = ev
			}
			if f > score {
				score = f
			}
			if j == 0 {
				// H(i, 0) = leading target gap.
				score = -(p.GapOpen + int32(i)*p.GapExt)
				ev = NegInf
			}
			hNew[j] = score
			eNew[j] = ev
			if score > NegInf {
				nf := score - p.GapOpen - p.GapExt
				if f > NegInf && f-p.GapExt > nf {
					nf = f - p.GapExt
				}
				f = nf
			} else if f > NegInf {
				f -= p.GapExt
			}
			if score > rowBest {
				rowBest = score
				rowBestJ = j
			}
		}
		width := en - st + 1
		res.Cells += int64(width)
		res.SumBand += int64(width)
		res.Rows++
		if width > res.MaxBand {
			res.MaxBand = width
		}
		res.VecOps += int64((width+simd.Lanes-1)/simd.Lanes) * RowVectorOps

		if rowBest > best {
			best = rowBest
			bi, bj = i, rowBestJ
		} else if p.ZDrop > 0 {
			// Z-drop test on the row maximum (ksw2's early exit).
			diagDiff := (i - bi) - (rowBestJ - bj)
			if diagDiff < 0 {
				diagDiff = -diagDiff
			}
			if rowBest < best-p.ZDrop-int32(diagDiff)*p.GapExt {
				res.ZDropped = true
				break
			}
		}

		// Trim dead cells from the band edges for the next row. A cell is
		// dead when it can no longer climb back above best - zdrop.
		if p.ZDrop > 0 {
			dead := best - p.ZDrop
			for st <= en && hNew[st] < dead && eNew[st] < dead {
				st++
			}
			for en >= st && hNew[en] < dead && eNew[en] < dead {
				en--
			}
			if st > en {
				res.ZDropped = true
				break
			}
		}
		// The band can extend one cell right as the row advances.
		if en < m {
			en++
			hNew[en] = NegInf
			eNew[en] = NegInf
		}
		// Cells left of st in the new row arrays are stale: mark the
		// boundary cell dead so the diagonal read at st is correct.
		if st > 0 {
			hNew[st-1] = NegInf
			eNew[st-1] = NegInf
		}
		h, hNew = hNew, h
		e, eNew = eNew, e
	}

	res.Score = best
	res.QueryEnd = bj
	res.TargetEnd = bi
	return res
}

// ExtendSeed performs ksw2-style seed-and-extend on a pair: left extension
// on reversed prefixes, right extension on suffixes, combined with the
// exact seed (the same protocol the paper uses to benchmark ksw2 against
// LOGAN on identical inputs).
func ExtendSeed(pair seq.Pair, p Params) (left, right Result, score int32) {
	q, t := pair.Query, pair.Target
	left = ExtendZ(q.Sub(0, pair.SeedQPos).Reverse(), t.Sub(0, pair.SeedTPos).Reverse(), p)
	right = ExtendZ(q.Sub(pair.SeedQPos+pair.SeedLen, len(q)), t.Sub(pair.SeedTPos+pair.SeedLen, len(t)), p)
	score = left.Score + right.Score + int32(pair.SeedLen)*p.Match
	return left, right, score
}
