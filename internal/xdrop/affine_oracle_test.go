package xdrop

import (
	"testing"

	"logan/internal/seq"
)

// extendAffineReference is the pre-driver ExtendAffine, frozen as the
// differential oracle of the Gotoh row kernel the way ExtendReference is
// for the linear ones: it allocates nine rows per call and reads every
// source through a bounds-checking closure, so it shares no code — and no
// sentinel reasoning — with the wavefront driver.
func extendAffineReference(q, t seq.Seq, sc AffineScoring, x int32) Result {
	m, n := len(q), len(t)
	res := Result{}
	if m == 0 || n == 0 || x < 0 {
		return res
	}

	type row struct {
		h, e, f []int32
		lo      int
	}
	mk := func(w int) row {
		return row{h: make([]int32, w), e: make([]int32, w), f: make([]int32, w)}
	}
	width0 := min(m, n) + 2
	cur, prev, prev2 := mk(width0), mk(width0), mk(width0)
	get := func(a []int32, lo, i int, n int) int32 {
		if i < lo || i >= lo+n {
			return NegInf
		}
		return a[i-lo]
	}

	// d = 0: H(0,0) = 0.
	prev.h[0], prev.e[0], prev.f[0] = 0, NegInf, NegInf
	prevLen := 1
	prev2Len := 0
	best := int32(0)
	bestI, bestJ := 0, 0
	res.AntiDiags, res.Cells, res.SumBand, res.MaxBand = 1, 1, 1, 1

	lo, hi := 0, 1
	for d := 1; d <= m+n; d++ {
		if lo < d-n {
			lo = d - n
		}
		if mh := min(d, m); hi > mh {
			hi = mh
		}
		if lo > hi {
			break
		}
		width := hi - lo + 1
		if cap(cur.h) < width {
			cur = mk(width)
		} else {
			cur.h = cur.h[:width]
			cur.e = cur.e[:width]
			cur.f = cur.f[:width]
		}
		cur.lo = lo
		threshold := best - x
		newBest := best
		nbI, nbJ := bestI, bestJ

		for i := lo; i <= hi; i++ {
			j := d - i
			// E: gap in target — from the left neighbor (i, j-1) on d-1.
			e := NegInf
			if j >= 1 {
				he := get(prev.h, prev.lo, i, prevLen)
				if he > NegInf {
					e = he + sc.GapOpen + sc.GapExtend
				}
				if ee := get(prev.e, prev.lo, i, prevLen); ee > NegInf && ee+sc.GapExtend > e {
					e = ee + sc.GapExtend
				}
			}
			// F: gap in query — from above (i-1, j) on d-1.
			f := NegInf
			if i >= 1 {
				hf := get(prev.h, prev.lo, i-1, prevLen)
				if hf > NegInf {
					f = hf + sc.GapOpen + sc.GapExtend
				}
				if ff := get(prev.f, prev.lo, i-1, prevLen); ff > NegInf && ff+sc.GapExtend > f {
					f = ff + sc.GapExtend
				}
			}
			// H: diagonal from (i-1, j-1) on d-2, or close a gap.
			h := NegInf
			if i >= 1 && j >= 1 {
				if hd := get(prev2.h, prev2.lo, i-1, prev2Len); hd > NegInf {
					if q[i-1] == t[j-1] {
						h = hd + sc.Match
					} else {
						h = hd + sc.Mismatch
					}
				}
			}
			if e > h {
				h = e
			}
			if f > h {
				h = f
			}
			// X-drop on H; E/F follow (a pruned cell ends all states).
			if h < threshold {
				h, e, f = NegInf, NegInf, NegInf
			} else if h > newBest {
				newBest = h
				nbI, nbJ = i, j
			}
			cur.h[i-lo], cur.e[i-lo], cur.f[i-lo] = h, e, f
		}
		res.Cells += int64(width)
		res.SumBand += int64(width)
		res.AntiDiags++
		if width > res.MaxBand {
			res.MaxBand = width
		}
		best = newBest
		bestI, bestJ = nbI, nbJ

		first, last := 0, width-1
		for first <= last && cur.h[first] == NegInf {
			first++
		}
		for last >= first && cur.h[last] == NegInf {
			last--
		}
		if first > last {
			break
		}
		// Rotate, keeping the trimmed bounds logically (storage intact).
		trimmed := row{
			h: cur.h[first : last+1], e: cur.e[first : last+1], f: cur.f[first : last+1],
			lo: cur.lo + first,
		}
		prev2, prev, cur = prev, trimmed, row{h: prev2.h[:0], e: prev2.e[:0], f: prev2.f[:0]}
		prev2Len = prevLen
		prevLen = last - first + 1
		lo = prev.lo
		hi = prev.lo + prevLen
	}
	res.Score = best
	res.QueryEnd = bestI
	res.TargetEnd = bestJ
	return res
}

// FuzzExtendAffineDifferential pins the Gotoh row kernel on the shared
// driver to the frozen oracle field for field — score, extents and all
// four work counters — and, with GapOpen = 0 (where Gotoh degenerates to
// linear gaps), to ExtendReference as well.
func FuzzExtendAffineDifferential(f *testing.F) {
	f.Add([]byte("ACGTACGTAAGGCCTTACGTACGT"), []byte("ACGTACGTCCTTACGTACGT"), int32(30), uint8(2), uint8(4), uint8(4), uint8(2))
	f.Add([]byte("ACGT"), []byte("A"), int32(0), uint8(1), uint8(1), uint8(0), uint8(1))
	f.Add([]byte("TTTTTTTTTTTT"), []byte("AAAAAAAAAAAA"), int32(7), uint8(1), uint8(1), uint8(2), uint8(1))
	f.Add([]byte("ACACACACACAC"), []byte("CACACACACACA"), int32(1000), uint8(5), uint8(3), uint8(11), uint8(1))
	f.Fuzz(func(t *testing.T, qRaw, tRaw []byte, x int32, mRaw, mmRaw, oRaw, eRaw uint8) {
		if len(qRaw) > 300 || len(tRaw) > 300 {
			return
		}
		if x < 0 {
			x = -x
		}
		x %= 1 << 20
		q := sanitizeDNA(qRaw)
		tt := sanitizeDNA(tRaw)
		sc := AffineScoring{
			Match:     int32(mRaw)%64 + 1,
			Mismatch:  -int32(mmRaw)%64 - 1,
			GapOpen:   -int32(oRaw) % 64,
			GapExtend: -int32(eRaw)%64 - 1,
		}
		got, err := ExtendAffine(q, tt, sc, x)
		if err != nil {
			t.Fatalf("valid scheme %+v rejected: %v", sc, err)
		}
		if want := extendAffineReference(q, tt, sc, x); got != want {
			t.Fatalf("affine %+v != oracle %+v (sc %+v x %d)", got, want, sc, x)
		}
		sc.GapOpen = 0
		got, _ = ExtendAffine(q, tt, sc, x)
		lin := Scoring{Match: sc.Match, Mismatch: sc.Mismatch, Gap: sc.GapExtend}
		if want := ExtendReference(q, tt, lin, x); got != want {
			t.Fatalf("affine(open=0) %+v != linear reference %+v (sc %+v x %d)", got, want, sc, x)
		}
	})
}
