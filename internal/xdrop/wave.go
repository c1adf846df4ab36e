package xdrop

import "logan/internal/seq"

// rowKernel is everything that differs between the production X-drop
// paths: what one anti-diagonal's interior cells cost. The band machinery
// around it (wave) is written once.
//
// The seam is per anti-diagonal, not per cell, on measurement: a scorer
// type parameter whose method runs per cell is not inlined under Go's
// GC-shape stenciling and halved the scalar kernel (0.296 -> 0.137
// cells/ns at x=25, 0.435 -> 0.180 at x=400). One dictionary call per
// row is what the seam costs instead. For int16 cells even that was most
// of the work at narrow bands: through this driver an x=25 anti-diagonal
// (21 cells on average) cost 58 ns, against 29 ns with the whole loop in
// one assembly call (BenchmarkKernel/vector ns/antidiag, 2-core Xeon; 71
// -> 37 ns at x=100). So wave drives the int32 kernels only; the int16
// vector kernel is the fused routine (extendVector on amd64), which
// reproduces wave over linearRow bit for bit, and where there is no fused
// routine the vector kernel is wave over linearRow itself.
type rowKernel interface {
	// planes is how many score planes a diagonal carries: 1 for the
	// linear-gap kernels (H only), 3 for Gotoh (H, E, F). Plane p of a
	// diagonal buffer starts at p*bandLen(m, n), so a kernel reaches the
	// extra planes of the slices row receives by reslicing them at that
	// stride. The driver trims, prunes and plants sentinels on plane 0
	// alone: an extra plane means something only where plane 0 is live, and
	// its kernel must read it as pruned elsewhere (see affineRow).
	planes() int
	// gaps returns the cost of a matrix-border step: first out of the
	// origin (d = 1, which opens the gap), rest along the border after it.
	gaps() (first, rest int32)
	// row computes the interior cells (i >= 1, j >= 1) of one
	// anti-diagonal: d3 the substitution sources and out the new diagonal
	// (both of length kn), d2m1 the previous diagonal with a one-cell lead
	// (length kn+1: "up" source of cell k at d2m1[k], "left" at
	// d2m1[k+1]), qs/ts the forward-read sequence spans. Every source lies
	// inside the sentinel-bracketed span of its buffer, so row needs no
	// range checks: a sentinel-sourced cell lands far below thr and is
	// re-pruned. Cells scoring below thr are stored
	// as the sentinel. row returns the updated running best and the index
	// of the first cell holding it (-1 if the row did not improve on
	// best) — the tie order of an in-order scan.
	//
	// out shares no memory with d3 or d2m1 — they are slices of the three
	// distinct rolling buffers — and a row may rely on it, storing cells
	// while later ones still read their sources (TestWaveNeverAliasesRow).
	// The fused routine keeps the same layout and recomputes the cells of
	// an overlapped final block, which is idempotent for the same reason.
	row(d3, d2m1, out []int32, qs, ts seq.Seq, thr, best int32) (int32, int)
}

// bandLen is the slot count of one plane of a diagonal buffer: an
// anti-diagonal holds at most min(m,n)+1 cells, plus one sentinel slot on
// each side.
func bandLen(m, n int) int { return min(m, n) + 3 }

// plant stores a matrix-border cell: v in slot s of plane 0 and the
// sentinel in the same slot of every extra plane (the cell is live, so the
// kernel would otherwise trust them).
func plant(a []int32, s, stride int, v int32) {
	a[s] = v
	for p := s + stride; p < len(a); p += stride {
		a[p] = NegInf
	}
}

// wave is the one anti-diagonal X-drop driver in Go (paper Alg. 1, Fig. 1):
// three rolling anti-diagonals, band clipping to the matrix, the two
// matrix-border cells, the work counters and end trimming. The interior
// cells of each anti-diagonal are the row kernel's. Scores, extents and
// work counters are bit-identical to ExtendReference for the linear
// kernels on every input.
//
// The diagonal buffers are sentinel-padded: each stored diagonal keeps a
// sentinel immediately before its first and after its last surviving
// cell, so the interior update needs no range checks — out-of-band sources
// read the sentinel and are re-pruned by the X-drop threshold. Only the
// matrix-border cells i=0 and j=0 (at most two per anti-diagonal) are
// handled here, because they have no substitution source; a border cell
// is reachable only by extending the gap that runs along the border, so
// its score is the previous border cell plus a gap step, and that step
// carries the gap state, so its extra planes are stored pruned.
//
// q and rt are the extension as fusedSlot.stage lays it out, q and the
// target reversed, so that the row kernels read both sequences forward:
// cell (i, j=d-i) compares q[i-1] against rt[n-d+i]. wave reads them only
// inside [0, m) and [0, n). bufs is the caller's scratch (see Workspace);
// it grows to the workload and is never cleared — every slot read was
// written by this extension.
//
// A non-nil trace receives the width of every anti-diagonal computed
// after d = 0, in order (see ExtendTrace); the served paths pass nil and
// pay one nil check per anti-diagonal.
func wave[K rowKernel](bufs *[3][]int32, q, rt seq.Seq, x int32, k K, trace *[]int32) Result {
	m, n := len(q), len(rt)
	if m == 0 || n == 0 || x < 0 {
		return Result{}
	}
	gapFirst, gapRest := k.gaps()

	stride := bandLen(m, n)
	size := stride * k.planes()
	for i := range bufs {
		if cap(bufs[i]) < size {
			bufs[i] = make([]int32, size)
		}
	}
	a1, a2, a3 := bufs[0][:size], bufs[1][:size], bufs[2][:size]

	// Cell i of the diagonal stored in a_k lives at a_k[i-org_k]; the
	// sentinels bracket the surviving cells.
	var org1, org2, org3 int

	// d = 0 holds only S(0,0) = 0, bracketed by sentinels.
	best := int32(0)
	bestI, bestJ := 0, 0
	org2 = -1
	a2[0], a2[1], a2[2] = NegInf, 0, NegInf
	res := Result{AntiDiags: 1, Cells: 1, SumBand: 1, MaxBand: 1}

	// Band bounds for the upcoming anti-diagonal (inclusive i range).
	lo, hi := 0, 1

	for d := 1; d <= m+n; d++ {
		// Clip to the matrix.
		if lo < d-n {
			lo = d - n
		}
		if hi > d {
			hi = d
		}
		if hi > m {
			hi = m
		}
		if lo > hi {
			break
		}

		width := hi - lo + 1
		org1 = lo - 1
		threshold := best - x
		newBest := best
		newBI, newBJ := bestI, bestJ
		gap := gapRest
		if d == 1 {
			gap = gapFirst
		}

		// Matrix border i = 0 (cell (0,d)): reachable only by a gap from
		// (0,d-1). lo == 0 implies d <= n, so the cell exists.
		if lo == 0 {
			s := a2[-org2] + gap
			if s < threshold {
				s = NegInf
			} else if s > newBest {
				newBest, newBI, newBJ = s, 0, d
			}
			plant(a1, 1, stride, s)
		}

		// Interior cells: i >= 1 and j = d-i >= 1.
		uLo := max(lo, 1)
		uHi := min(hi, d-1)
		if uLo <= uHi {
			kn := uHi - uLo + 1
			nb, bk := k.row(
				a3[uLo-1-org3:][:kn],
				a2[uLo-1-org2:][:kn+1],
				a1[uLo-org1:][:kn],
				q[uLo-1:][:kn],
				rt[n-d+uLo:][:kn],
				threshold, newBest)
			newBest = nb
			if bk >= 0 {
				newBI = uLo + bk
				newBJ = d - uLo - bk
			}
		}

		// Matrix border j = 0 (cell (d,0)): reachable only by a gap from
		// (d-1,0). hi == d implies d <= m. Processed after the interior so
		// that ties keep the smallest-i cell, like ExtendReference.
		if hi == d {
			s := a2[d-1-org2] + gap
			if s < threshold {
				s = NegInf
			} else if s > newBest {
				newBest, newBI, newBJ = s, d, 0
			}
			plant(a1, d-org1, stride, s)
		}

		res.Cells += int64(width)
		res.SumBand += int64(width)
		res.AntiDiags++
		if width > res.MaxBand {
			res.MaxBand = width
		}
		if trace != nil {
			*trace = append(*trace, int32(width))
		}
		best = newBest
		bestI, bestJ = newBI, newBJ

		// Trim pruned cells from both ends (Alg. 1 lines 10-15). Cells of
		// this diagonal occupy buffer slots 1..width.
		first, last := 0, width-1
		for first <= last && a1[first+1] == NegInf {
			first++
		}
		for last >= first && a1[last+1] == NegInf {
			last--
		}
		if first > last {
			break // band empty: X-drop termination
		}
		// Plant the sentinels around the survivors, rotate the buffers and
		// open the next band one wider at the top, per the anti-diagonal
		// geometry.
		a1[first] = NegInf
		a1[last+2] = NegInf
		a3, a2, a1 = a2, a1, a3
		org3, org2 = org2, org1
		hi = lo + last + 1
		lo = lo + first
	}

	res.Score = best
	res.QueryEnd = bestI
	res.TargetEnd = bestJ
	return res
}
