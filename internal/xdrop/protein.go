package xdrop

// Protein-alignment support: the paper's §VIII names extending LOGAN "to
// support protein alignment" as future work; this file implements it for
// the CPU engine. The X-drop recurrence is unchanged — only the
// match/mismatch constant is replaced by a substitution-matrix lookup
// (BLOSUM62 by default), with linear gaps as elsewhere in the repository.

import (
	"fmt"
	"math"

	"logan/internal/seq"
)

// AminoAlphabet is the residue order of NCBI substitution matrices.
const AminoAlphabet = "ARNDCQEGHILKMFPSTWYVBZX*"

// Matrix is a residue substitution matrix plus a linear gap penalty.
type Matrix struct {
	Name     string
	Gap      int32
	alphabet string
	index    [256]uint8 // byte -> residue index; unknownResidue = not in the alphabet
	// scores is padded to a power of two so lookups by masked index need no
	// bounds check; every entry outside the alphabet's block — in particular
	// row and column unknownResidue — holds the matrix minimum.
	scores [32][32]int8
	maxAbs int32 // largest |entry|, for score-overflow budgeting
}

// unknownResidue is the index of every byte outside the alphabet.
const unknownResidue = 31

// NewMatrix builds a Matrix over the given alphabet (<= 24 distinct
// symbols; upper-case letters also match their lower-case form) from a
// dense score table in alphabet order.
func NewMatrix(name, alphabet string, scores [][]int8, gap int32) (*Matrix, error) {
	n := len(alphabet)
	if n == 0 || n > 24 {
		return nil, fmt.Errorf("xdrop: alphabet size %d outside [1,24]", n)
	}
	if len(scores) != n {
		return nil, fmt.Errorf("xdrop: score table has %d rows, want %d", len(scores), n)
	}
	if gap >= 0 {
		return nil, fmt.Errorf("xdrop: gap penalty %d must be negative", gap)
	}
	m := &Matrix{Name: name, Gap: gap, alphabet: alphabet}
	for i := range m.index {
		m.index[i] = unknownResidue
	}
	claim := func(c byte, i int) error {
		if m.index[c] != unknownResidue {
			return fmt.Errorf("xdrop: alphabet %q repeats symbol %q", alphabet, c)
		}
		m.index[c] = uint8(i)
		return nil
	}
	lowest := int8(math.MaxInt8)
	for i := 0; i < n; i++ {
		c := alphabet[i]
		if err := claim(c, i); err != nil {
			return nil, err
		}
		if c >= 'A' && c <= 'Z' {
			if err := claim(c|0x20, i); err != nil {
				return nil, err
			}
		}
		if len(scores[i]) != n {
			return nil, fmt.Errorf("xdrop: score row %d has %d entries, want %d", i, len(scores[i]), n)
		}
		for _, s := range scores[i] {
			lowest = min(lowest, s)
			m.maxAbs = max(m.maxAbs, int32(s), -int32(s))
		}
	}
	for i := range m.scores {
		for j := range m.scores[i] {
			m.scores[i][j] = lowest
		}
		if i < n {
			copy(m.scores[i][:], scores[i])
		}
	}
	return m, nil
}

// MaxAbsScore returns the largest magnitude among the matrix entries
// (e.g. 11 for BLOSUM62), the per-substitution bound callers use to
// budget against int32 score overflow on long sequences.
func (m *Matrix) MaxAbsScore() int32 { return m.maxAbs }

// Score returns the substitution score of residues a and b. Unknown
// residues score as the matrix minimum.
func (m *Matrix) Score(a, b byte) int32 {
	return int32(m.scores[m.index[a]&31][m.index[b]&31])
}

// ValidSeq reports whether every byte of s is in the matrix alphabet.
func (m *Matrix) ValidSeq(s []byte) bool {
	for _, c := range s {
		if m.index[c] == unknownResidue {
			return false
		}
	}
	return true
}

// Alphabet returns the residue order.
func (m *Matrix) Alphabet() string { return m.alphabet }

// blosum62 is the standard NCBI BLOSUM62 table in AminoAlphabet order.
var blosum62 = [24][24]int8{
	{4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0, -2, -1, 0, -4},
	{-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3, -1, 0, -1, -4},
	{-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3, 3, 0, -1, -4},
	{-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3, 4, 1, -1, -4},
	{0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1, -3, -3, -2, -4},
	{-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2, 0, 3, -1, -4},
	{-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2, 1, 4, -1, -4},
	{0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3, -1, -2, -1, -4},
	{-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3, 0, 0, -1, -4},
	{-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3, -3, -3, -1, -4},
	{-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1, -4, -3, -1, -4},
	{-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2, 0, 1, -1, -4},
	{-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1, -3, -1, -1, -4},
	{-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1, -3, -3, -1, -4},
	{-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2, -2, -1, -2, -4},
	{1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2, 0, 0, 0, -4},
	{0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0, -1, -1, 0, -4},
	{-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3, -4, -3, -2, -4},
	{-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1, -3, -2, -1, -4},
	{0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4, -3, -2, -1, -4},
	{-2, -1, 3, 4, -3, 0, 1, -1, 0, -3, -4, 0, -3, -3, -2, 0, -1, -4, -3, -3, 4, 1, -1, -4},
	{-1, 0, 0, 1, -3, 3, 4, -2, 0, -3, -3, 1, -1, -3, -1, 0, -1, -3, -2, -2, 1, 4, -1, -4},
	{0, -1, -1, -1, -2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -2, 0, 0, -2, -1, -1, -1, -1, -1, -4},
	{-4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, 1},
}

// Blosum62 returns the BLOSUM62 matrix with the given linear gap penalty
// (a common choice pairs BLOSUM62 with gap -6 under linear gaps).
func Blosum62(gap int32) *Matrix {
	rows := make([][]int8, 24)
	for i := range rows {
		rows[i] = blosum62[i][:]
	}
	m, err := NewMatrix("BLOSUM62", AminoAlphabet, rows, gap)
	if err != nil {
		panic(err) // static table; cannot fail
	}
	return m
}

// matrixRow is linearRow with the match/mismatch compare replaced by a
// substitution-table lookup.
type matrixRow struct{ m *Matrix }

func (matrixRow) planes() int { return 1 }

func (r matrixRow) gaps() (first, rest int32) { return r.m.Gap, r.m.Gap }

func (r matrixRow) row(d3, d2m1, out []int32, qs, ts seq.Seq, thr, best int32) (int32, int) {
	kn := len(out)
	d3 = d3[:kn]
	d2 := d2m1[1:][:kn]
	qs = qs[:kn]
	ts = ts[:kn]
	index, sub, gap := &r.m.index, &r.m.scores, r.m.Gap
	up := d2m1[0]
	bestK := -1
	for k := 0; k < kn; k++ {
		s := d3[k] + int32(sub[index[qs[k]]&31][index[ts[k]]&31])
		cur := d2[k]
		g := up
		if cur > g {
			g = cur
		}
		up = cur
		if g += gap; g > s {
			s = g
		}
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
