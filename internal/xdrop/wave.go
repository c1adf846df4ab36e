package xdrop

import (
	"math"

	"logan/internal/seq"
)

// cell is the element width of one wavefront instantiation: int32 for the
// scalar, matrix and affine kernels, int16 for the SIMD vector kernel.
type cell interface{ int16 | int32 }

// rowKernel is everything that differs between the production X-drop
// paths: what one anti-diagonal's interior cells cost. The band machinery
// around it (wave) is written once.
//
// The seam is per anti-diagonal, not per cell, on measurement: a scorer
// type parameter whose method runs per cell is not inlined under Go's
// GC-shape stenciling and halved the scalar kernel (0.296 -> 0.137
// cells/ns at x=25, 0.435 -> 0.180 at x=400). One dictionary call per
// row is what the seam costs instead, and at narrow bands that was most of
// the int16 kernel's work: through this driver an x=25 anti-diagonal (21
// cells on average) cost 58 ns, against 29 ns with the whole loop in one
// assembly call (BenchmarkKernel/vector ns/antidiag, 2-core Xeon; 71 -> 37
// ns at x=100). So on amd64 the int16 instantiation runs as the fused
// routine (extendFused), and wave is what it reproduces bit for bit; wave
// itself drives the int32 kernels and, over the portable rows, the int16
// kernel elsewhere.
type rowKernel[C cell] interface {
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
	gaps() (first, rest C)
	// row computes the interior cells (i >= 1, j >= 1) of one
	// anti-diagonal, in the slice layout documented at vectorKernel:
	// d3 the substitution sources, d2m1 the previous diagonal with a
	// one-cell lead ("up" source of cell k at d2m1[k], "left" at
	// d2m1[k+1]), out the new diagonal, qs/ts the forward-read sequence
	// spans. Every source lies inside the sentinel-bracketed span of its
	// buffer, so row needs no range checks: a sentinel-sourced cell lands
	// far below thr and is re-pruned. Cells scoring below thr are stored
	// as the sentinel. row returns the updated running best and the index
	// of the first cell holding it (-1 if the row did not improve on
	// best) — the tie order of an in-order scan.
	//
	// out shares no memory with d3 or d2m1 — they are slices of the three
	// distinct rolling buffers — and a row may rely on it: the vector
	// kernel recomputes the cells of an overlapped final block, which is
	// idempotent only while no store can reach a source
	// (TestWaveNeverAliasesRow).
	row(d3, d2m1, out []C, qs, ts seq.Seq, thr, best C) (C, int)
}

// bandLen is the slot count of one plane of a diagonal buffer: an
// anti-diagonal holds at most min(m,n)+1 cells, plus one sentinel slot on
// each side.
func bandLen(m, n int) int { return min(m, n) + 3 }

// limits returns the pruned-cell sentinel and the rebase mark of a cell
// width. int16 scores are carried rebased (see extend_vector.go); int32
// scores never reach their mark, because callers budget sequence length
// times score magnitude against int32 overflow.
func limits[C cell]() (neg, rebaseAt C) {
	if _, narrow := any(neg).(int16); narrow {
		n, r := negInf16, vectorRebaseAt
		return C(n), C(r)
	}
	n, r := NegInf, int32(math.MaxInt32)
	return C(n), C(r)
}

// plant stores a matrix-border cell: v in slot s of plane 0 and the
// sentinel in the same slot of every extra plane (the cell is live, so the
// kernel would otherwise trust them).
func plant[C cell](a []C, s, stride int, v, neg C) {
	a[s] = v
	for p := s + stride; p < len(a); p += stride {
		a[p] = neg
	}
}

// rebase subtracts delta from every live cell of a carried diagonal,
// leaving sentinels (everything at or below guard) untouched. The sweep
// runs over the whole buffer — the live span is sentinel-bracketed inside
// it — and fires at most once per rebase mark of score gained, so its
// cost amortizes to nothing.
func rebase[C cell](a []C, delta, guard C) {
	for i := range a {
		if a[i] > guard {
			a[i] -= delta
		}
	}
}

// wave is the one anti-diagonal X-drop driver in Go (paper Alg. 1, Fig. 1):
// three rolling anti-diagonals, band clipping to the matrix, the two
// matrix-border cells, the work counters, end trimming, and — for int16
// cells — score rebasing. The interior cells of each anti-diagonal are
// the row kernel's. Scores, extents and work counters are bit-identical
// to ExtendReference for the linear kernels on every input.
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
// bufs and rtBuf are the caller's scratch (see Workspace); they grow to
// the workload and are never cleared — every slot read was written by
// this extension.
//
// A non-nil trace receives the width of every anti-diagonal computed
// after d = 0, in order (see ExtendTrace); the served paths pass nil and
// pay one nil check per anti-diagonal.
func wave[C cell, K rowKernel[C]](bufs *[3][]C, rtBuf *seq.Seq, q, t seq.Seq, x C, k K, trace *[]int32) Result {
	m, n := len(q), len(t)
	if m == 0 || n == 0 || x < 0 {
		return Result{}
	}
	neg, rebaseAt := limits[C]()
	gapFirst, gapRest := k.gaps()

	stride := bandLen(m, n)
	size := stride * k.planes()
	for i := range bufs {
		if cap(bufs[i]) < size {
			bufs[i] = make([]C, size)
		}
	}
	a1, a2, a3 := bufs[0][:size], bufs[1][:size], bufs[2][:size]

	// rt mirrors t in reverse order so the row kernels read both sequences
	// forward: cell (i, j=d-i) compares q[i-1] against rt[n-d+i]. It is
	// filled one symbol per anti-diagonal, so only the explored prefix of
	// t is ever touched.
	if cap(*rtBuf) < n {
		*rtBuf = make(seq.Seq, n)
	}
	rt := (*rtBuf)[:n]

	// Cell i of the diagonal stored in a_k lives at a_k[i-org_k]; the
	// sentinels bracket the surviving cells.
	var org1, org2, org3 int

	// Scores are carried rebased: true score = base + cell value.
	var base int32

	// d = 0 holds only S(0,0) = 0, bracketed by sentinels.
	best := C(0)
	bestI, bestJ := 0, 0
	org2 = -1
	a2[0], a2[1], a2[2] = neg, 0, neg
	res := Result{AntiDiags: 1, Cells: 1, SumBand: 1, MaxBand: 1}

	// Band bounds for the upcoming anti-diagonal (inclusive i range).
	lo, hi := 0, 1

	for d := 1; d <= m+n; d++ {
		if d <= n {
			rt[n-d] = t[d-1]
		}
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

		// Rebase between diagonals once the local best nears the mark:
		// subtract it from every live cell of the two carried diagonals so
		// the upcoming scores stay centered near zero.
		if best >= rebaseAt {
			rebase(a2, best, neg/2)
			rebase(a3, best, neg/2)
			base += int32(best)
			best = 0
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
				s = neg
			} else if s > newBest {
				newBest, newBI, newBJ = s, 0, d
			}
			plant(a1, 1, stride, s, neg)
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
				s = neg
			} else if s > newBest {
				newBest, newBI, newBJ = s, d, 0
			}
			plant(a1, d-org1, stride, s, neg)
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
		for first <= last && a1[first+1] == neg {
			first++
		}
		for last >= first && a1[last+1] == neg {
			last--
		}
		if first > last {
			break // band empty: X-drop termination
		}
		// Plant the sentinels around the survivors, rotate the buffers and
		// open the next band one wider at the top, per the anti-diagonal
		// geometry.
		a1[first] = neg
		a1[last+2] = neg
		a3, a2, a1 = a2, a1, a3
		org3, org2 = org2, org1
		hi = lo + last + 1
		lo = lo + first
	}

	res.Score = base + int32(best)
	res.QueryEnd = bestI
	res.TargetEnd = bestJ
	return res
}
