package xdrop

// Scheme generalizes the engine's scoring over the three families the
// repository implements: the paper's linear DNA scheme (the only one the
// GPU kernel speaks, §III), Gotoh affine gaps (affine.go), and residue
// substitution matrices (protein.go, the §VIII future-work item). A Scheme
// is the batch-level carrier — the only form the scoring family takes
// below the public logan.Config: one value parameterizes a whole backend
// batch, keys the coalescer lane and the result cache, and is lowered
// onto the GPU kernel's linear-only core.Config in exactly one place
// (internal/backend).

import (
	"fmt"

	"logan/internal/seq"
)

// SchemeKind enumerates the scoring families. The zero value is
// SchemeLinear, so legacy configs that only populate a linear Scoring
// keep meaning what they always meant.
type SchemeKind uint8

const (
	// SchemeLinear is the paper's scheme: per-base match/mismatch and a
	// linear gap penalty, over the DNA alphabet.
	SchemeLinear SchemeKind = iota
	// SchemeAffine is Gotoh scoring: GapOpen + l*GapExtend per gap.
	SchemeAffine
	// SchemeMatrix scores substitutions by a residue matrix (e.g.
	// BLOSUM62) with a linear gap penalty.
	SchemeMatrix
)

// String names the family ("linear", "affine", "matrix").
func (k SchemeKind) String() string {
	switch k {
	case SchemeLinear:
		return "linear"
	case SchemeAffine:
		return "affine"
	case SchemeMatrix:
		return "matrix"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(k))
	}
}

// Scheme is a tagged union over the scoring families: Kind selects which
// of the three payload fields is live.
type Scheme struct {
	Kind   SchemeKind
	Linear Scoring       // live when Kind == SchemeLinear
	Affine AffineScoring // live when Kind == SchemeAffine
	Matrix *Matrix       // live when Kind == SchemeMatrix
}

// LinearScheme wraps a linear scoring scheme.
func LinearScheme(s Scoring) Scheme { return Scheme{Kind: SchemeLinear, Linear: s} }

// AffineScheme wraps a Gotoh affine-gap scheme.
func AffineScheme(s AffineScoring) Scheme { return Scheme{Kind: SchemeAffine, Affine: s} }

// MatrixScheme wraps a substitution-matrix scheme.
func MatrixScheme(m *Matrix) Scheme { return Scheme{Kind: SchemeMatrix, Matrix: m} }

// Validate rejects schemes whose live payload is nonsensical.
func (s Scheme) Validate() error {
	switch s.Kind {
	case SchemeLinear:
		return s.Linear.Validate()
	case SchemeAffine:
		return s.Affine.Validate()
	case SchemeMatrix:
		if s.Matrix == nil {
			return fmt.Errorf("xdrop: matrix scheme with nil matrix")
		}
		return nil
	default:
		return fmt.Errorf("xdrop: unknown scheme kind %d", s.Kind)
	}
}

// seedScore is the seed region's contribution to a seed-and-extend score.
// DNA seeds are exact k-mer matches from the overlapper, so under the
// linear and affine schemes they score length x match; protein seeds are
// rarely exact, so a matrix scores the seed's residue pairs.
func (s Scheme) seedScore(q, t seq.Seq) int32 {
	switch s.Kind {
	case SchemeAffine:
		return int32(len(q)) * s.Affine.Match
	case SchemeMatrix:
		var sum int32
		for k := range q {
			sum += s.Matrix.Score(q[k], t[k])
		}
		return sum
	default:
		return int32(len(q)) * s.Linear.Match
	}
}
