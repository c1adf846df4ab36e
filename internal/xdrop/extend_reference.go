package xdrop

import "logan/internal/seq"

// ExtendReference is the pre-engine implementation of the linear X-drop
// extension, kept verbatim as a differential oracle: every kernel of
// Workspace.extend must reproduce its
// scores, extents and work counters bit for bit on every input (see
// TestExtendMatchesReference), and the benchmarks compare against it to
// quantify the kernel rewrite. It allocates its anti-diagonal buffers per
// call and pays range-checked edge handling per anti-diagonal.
func ExtendReference(q, t seq.Seq, sc Scoring, x int32) Result {
	m, n := len(q), len(t)
	res := Result{}
	if m == 0 || n == 0 || x < 0 {
		return res
	}

	// a3 = anti-diagonal d-2, a2 = d-1, a1 = d, with lo* the i-index of
	// the first stored cell of each buffer.
	cap0 := min(m, n) + 2
	a1 := make([]int32, 0, cap0)
	a2 := make([]int32, 0, cap0)
	a3 := make([]int32, 0, cap0)
	var lo1, lo2, lo3 int

	// d = 0 holds only S(0,0) = 0.
	best := int32(0)
	bestI, bestJ := 0, 0
	a2 = append(a2, 0)
	lo2 = 0
	res.AntiDiags = 1
	res.Cells = 1
	res.SumBand = 1
	res.MaxBand = 1

	// Band bounds for the upcoming anti-diagonal (inclusive i range).
	lo, hi := 0, 1

	for d := 1; d <= m+n; d++ {
		// Clip to the matrix.
		if lo < d-n {
			lo = d - n
		}
		if hi > min(d, m) {
			hi = min(d, m)
		}
		if lo > hi {
			break
		}
		width := hi - lo + 1
		if cap(a1) < width {
			a1 = make([]int32, width)
		} else {
			a1 = a1[:width]
		}
		lo1 = lo

		hi2 := lo2 + len(a2) - 1
		hi3 := lo3 + len(a3) - 1
		threshold := best - x

		newBest := best
		newBI, newBJ := bestI, bestJ

		// Generic cell update with full range checks, used at the band
		// edges where some of the three sources fall outside their
		// buffers.
		edgeCell := func(i int) {
			j := d - i
			s := NegInf
			if i >= 1 && j >= 1 && i-1 >= lo3 && i-1 <= hi3 {
				prev := a3[i-1-lo3]
				if prev > NegInf {
					if q[i-1] == t[j-1] {
						s = prev + sc.Match
					} else {
						s = prev + sc.Mismatch
					}
				}
			}
			g := NegInf
			if j >= 1 && i >= lo2 && i <= hi2 {
				g = a2[i-lo2]
			}
			if i >= 1 && i-1 >= lo2 && i-1 <= hi2 {
				if v := a2[i-1-lo2]; v > g {
					g = v
				}
			}
			if g > NegInf && g+sc.Gap > s {
				s = g + sc.Gap
			}
			if s < threshold {
				s = NegInf
			} else if s > newBest {
				newBest = s
				newBI, newBJ = i, j
			}
			a1[i-lo] = s
		}

		// Core range: all three sources in bounds, i>=1, j>=1. In the
		// core the NegInf guards are unnecessary: NegInf is MinInt32/2,
		// so NegInf+score stays far below threshold and is re-pruned.
		coreLo := max(lo, 1, lo2+1, lo3+1)
		coreHi := min(hi, d-1, hi2, hi3+1)

		if coreLo > coreHi {
			for i := lo; i <= hi; i++ {
				edgeCell(i)
			}
		} else {
			for i := lo; i < coreLo; i++ {
				edgeCell(i)
			}
			match, mismatch, gap := sc.Match, sc.Mismatch, sc.Gap
			off3 := coreLo - 1 - lo3
			off2 := coreLo - lo2
			k1 := coreHi - coreLo
			d3 := a3[off3 : off3+k1+1 : off3+k1+1]
			d2 := a2[off2 : off2+k1+1 : off2+k1+1]
			u2 := a2[off2-1 : off2+k1 : off2+k1]
			out := a1[coreLo-lo : coreLo-lo+k1+1 : coreLo-lo+k1+1]
			qs := q[coreLo-1 : coreLo+k1 : coreLo+k1]
			// j = d-i runs downward as i rises: t index is d-i-1.
			for k := 0; k <= k1; k++ {
				i := coreLo + k
				s := d3[k]
				if qs[k] == t[d-i-1] {
					s += match
				} else {
					s += mismatch
				}
				g := d2[k]
				if v := u2[k]; v > g {
					g = v
				}
				if g += gap; g > s {
					s = g
				}
				if s < threshold {
					s = NegInf
				} else if s > newBest {
					newBest = s
					newBI, newBJ = i, d-i
				}
				out[k] = s
			}
			for i := coreHi + 1; i <= hi; i++ {
				edgeCell(i)
			}
		}
		res.Cells += int64(width)
		res.SumBand += int64(width)
		res.AntiDiags++
		if width > res.MaxBand {
			res.MaxBand = width
		}
		best = newBest
		bestI, bestJ = newBI, newBJ

		// Trim pruned cells from both ends (Alg. 1 lines 10-15).
		first, last := 0, width-1
		for first <= last && a1[first] == NegInf {
			first++
		}
		for last >= first && a1[last] == NegInf {
			last--
		}
		if first > last {
			break // band empty: X-drop termination
		}
		// Next band: one wider at the top, per the anti-diagonal geometry.
		lo = lo1 + first
		hi = lo1 + last + 1
		// Rotate buffers: a3 <- a2, a2 <- trimmed a1.
		a3, a2, a1 = a2, a1[first:last+1], a3[:0]
		lo3 = lo2
		lo2 = lo1 + first
	}

	res.Score = best
	res.QueryEnd = bestI
	res.TargetEnd = bestJ
	return res
}
