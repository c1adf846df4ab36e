package xdrop

// Affine-gap X-drop extension. SeqAn's extendSeed supports affine gap
// costs alongside the linear scheme LOGAN ports to the GPU; this file
// completes the algorithm family for the CPU engine. The anti-diagonal
// band machinery is the shared driver (wave) — the Gotoh E/F states ride
// along as two extra planes of the same three rolling buffers.

import (
	"fmt"

	"logan/internal/seq"
)

// AffineScoring is a Gotoh-style scheme: a gap of length l costs
// GapOpen + l*GapExtend (both negative).
type AffineScoring struct {
	Match     int32
	Mismatch  int32
	GapOpen   int32 // charged once per gap, on top of the first extend
	GapExtend int32 // charged per gap base
}

// Validate rejects non-sensible schemes.
func (s AffineScoring) Validate() error {
	if s.Match <= 0 {
		return fmt.Errorf("xdrop: affine match %d must be positive", s.Match)
	}
	if s.Mismatch >= 0 || s.GapOpen > 0 || s.GapExtend >= 0 {
		return fmt.Errorf("xdrop: affine penalties must be negative (mismatch %d, open %d, extend %d)",
			s.Mismatch, s.GapOpen, s.GapExtend)
	}
	return nil
}

// affineRow is the Gotoh row kernel. Each diagonal buffer carries three
// planes stride slots apart — H, then E, then F — so the E/F states share
// the H plane's slot geometry and rotation. H is the match-ending state, E
// the gap-in-target state (horizontal), F the gap-in-query state
// (vertical); pruning and band trimming operate on H.
type affineRow struct {
	AffineScoring
	stride int // bandLen of the extension
}

func (affineRow) planes() int { return 3 }

func (a affineRow) gaps() (first, rest int32) { return a.GapOpen + a.GapExtend, a.GapExtend }

func (a affineRow) row(d3, d2m1, out []int32, qs, ts seq.Seq, thr, best int32) (int32, int) {
	kn := len(out)
	s := a.stride
	d3 = d3[:kn]
	h2 := d2m1[1:][:kn]      // H of the left source, cell (i, j-1)
	e2 := d2m1[s+1 : s+1+kn] // E of the left source
	f2 := d2m1[2*s : 2*s+kn] // F of the up source, cell (i-1, j)
	eo := out[s : s+kn]
	fo := out[2*s : 2*s+kn]
	qs = qs[:kn]
	ts = ts[:kn]
	match, mismatch := a.Match, a.Mismatch
	open, ext := a.gaps() // cost of a gap's first base and of each later one
	up := d2m1[0]         // H of the up source, carried like the linear kernel's
	// The driver plants sentinels in H only. The two end sources are the
	// only slots that can be one, so prune their E/F here.
	if up == NegInf {
		f2[0] = NegInf
	}
	if d2m1[kn] == NegInf {
		e2[kn-1] = NegInf
	}
	bestK := -1
	for k := 0; k < kn; k++ {
		left := h2[k]
		e := max(left+open, e2[k]+ext)
		f := max(up+open, f2[k]+ext)
		up = left
		add := mismatch
		if qs[k] == ts[k] {
			add = match
		}
		h := max(d3[k]+add, e, f)
		if h > best {
			best = h
			bestK = k
		}
		// X-drop on H; E/F follow (a pruned cell ends all states).
		if h < thr {
			h, e, f = NegInf, NegInf, NegInf
		}
		out[k], eo[k], fo[k] = h, e, f
	}
	return best, bestK
}
