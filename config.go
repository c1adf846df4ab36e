package logan

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"logan/internal/seq"
	"logan/internal/xdrop"
)

// ErrUnsupportedConfig reports a Config whose scoring mode the selected
// backend cannot execute: the simulated GPU kernel is linear-DNA only,
// exactly like the paper's device code (§VIII names protein support as
// future work). Affine and substitution-matrix configs run on the CPU
// backend, and on Hybrid engines they are routed to the CPU shards
// automatically; only the pure-GPU backend rejects them.
var ErrUnsupportedConfig = errors.New("logan: scoring mode not supported by this backend (the GPU kernel is linear-DNA only; use the CPU or Hybrid backend for affine and matrix scoring)")

// Config is the per-request alignment configuration of the v2 API: the
// X-drop threshold plus a scoring scheme. It is deliberately separate
// from EngineOptions — engine shape (backend, devices, threads) is fixed
// at NewAligner, while every Align call carries its own Config, so one
// long-lived engine serves many scoring configurations concurrently
// (each request picking its own X, gap model and alphabet, the
// multi-tenant serve model).
type Config struct {
	// X is the X-drop threshold: extension stops when the score falls
	// more than X below the best seen (paper §III-A). Must be >= 0.
	X int32
	// Scoring selects the scheme; construct it with LinearScoring,
	// AffineScoring or MatrixScoring. The zero value is invalid — a
	// Config must state its scheme explicitly, so an all-zero scheme is a
	// validation error rather than a silent +1/-1/-1.
	Scoring Scoring
}

// DefaultConfig returns the paper's configuration for a given X: linear
// +1/-1/-1 DNA scoring.
func DefaultConfig(x int32) Config {
	return Config{X: x, Scoring: LinearScoring(1, -1, -1)}
}

// Validate rejects nonsensical configurations: a negative X, an unset
// Scoring, or a scheme whose parameters break the algorithm's
// assumptions (non-positive match reward, non-negative penalties). No
// silent defaults are substituted.
func (c Config) Validate() error {
	if c.X < 0 {
		return fmt.Errorf("logan: negative X %d", c.X)
	}
	return c.Scoring.Validate()
}

// scoringMode tags the live payload of a Scoring. The zero value is
// deliberately "unset", so a zero Config fails validation instead of
// silently selecting a default scheme.
type scoringMode uint8

const (
	scoringUnset scoringMode = iota
	scoringLinear
	scoringAffine
	scoringMatrix
)

// Scoring is the scheme of a Config: linear match/mismatch/gap (the
// paper's family, GPU-capable), Gotoh affine gaps, or a residue
// substitution matrix such as BLOSUM62 (both CPU-engine families).
// Construct values with LinearScoring, AffineScoring or MatrixScoring;
// the zero value is invalid.
type Scoring struct {
	mode   scoringMode
	linear xdrop.Scoring
	affine xdrop.AffineScoring
	matrix *Matrix
}

// LinearScoring selects the linear scheme: match > 0, mismatch < 0,
// gap < 0. This is the only scheme the GPU backend executes.
func LinearScoring(match, mismatch, gap int32) Scoring {
	return Scoring{mode: scoringLinear, linear: xdrop.Scoring{Match: match, Mismatch: mismatch, Gap: gap}}
}

// AffineScoring selects Gotoh affine-gap scoring: a gap of length l
// costs gapOpen + l*gapExtend (both negative). CPU-engine only; on a
// Hybrid engine these batches route to the CPU shards.
func AffineScoring(match, mismatch, gapOpen, gapExtend int32) Scoring {
	return Scoring{mode: scoringAffine, affine: xdrop.AffineScoring{
		Match: match, Mismatch: mismatch, GapOpen: gapOpen, GapExtend: gapExtend,
	}}
}

// MatrixScoring selects substitution-matrix scoring (e.g. Blosum62) with
// the matrix's linear gap penalty. Sequences are validated against the
// matrix alphabet instead of the DNA alphabet. CPU-engine only; on a
// Hybrid engine these batches route to the CPU shards.
func MatrixScoring(m *Matrix) Scoring {
	return Scoring{mode: scoringMatrix, matrix: m}
}

// Mode names the selected scheme: "linear", "affine" or "matrix" ("" for
// the invalid zero value).
func (s Scoring) Mode() string {
	switch s.mode {
	case scoringLinear:
		return "linear"
	case scoringAffine:
		return "affine"
	case scoringMatrix:
		return "matrix"
	default:
		return ""
	}
}

// MaxAbsParam returns the largest magnitude among the scheme's score
// parameters (matrix schemes report the int8 entry bound against the gap
// penalty) — the quantity a front end needs to budget against int32
// score overflow: a score accumulates at most MaxAbsParam per base, so
// MaxAbsParam * (len(query)+len(target)) must stay below MaxInt32.
func (s Scoring) MaxAbsParam() int32 {
	abs := func(v int32) int32 {
		if v < 0 {
			return -v
		}
		return v
	}
	switch s.mode {
	case scoringLinear:
		return max(abs(s.linear.Match), abs(s.linear.Mismatch), abs(s.linear.Gap))
	case scoringAffine:
		return max(abs(s.affine.Match), abs(s.affine.Mismatch),
			abs(s.affine.GapOpen)+abs(s.affine.GapExtend))
	case scoringMatrix:
		if s.matrix == nil || s.matrix.m == nil {
			return 0
		}
		// The matrix's real extreme entry (11 for BLOSUM62), not the int8
		// type bound: an over-conservative figure would make front ends
		// reject valid long-sequence requests.
		return max(s.matrix.m.MaxAbsScore(), abs(s.matrix.m.Gap))
	default:
		return 0
	}
}

// Validate rejects unset and nonsensical schemes.
func (s Scoring) Validate() error {
	switch s.mode {
	case scoringLinear:
		return s.linear.Validate()
	case scoringAffine:
		return s.affine.Validate()
	case scoringMatrix:
		if s.matrix == nil || s.matrix.m == nil {
			return fmt.Errorf("logan: matrix scoring with nil matrix")
		}
		return nil
	default:
		return fmt.Errorf("logan: Config.Scoring is unset: construct it with LinearScoring, AffineScoring or MatrixScoring")
	}
}

// Matrix is a residue substitution matrix plus a linear gap penalty —
// the scoring table of MatrixScoring. Obtain one from Blosum62 or
// NewMatrix. Two Configs group into the same coalescer batch only when
// they reference the same *Matrix, so reuse one value per table rather
// than rebuilding it per request.
type Matrix struct {
	m *xdrop.Matrix
}

// Name returns the matrix name (e.g. "BLOSUM62"), or "" for the invalid
// zero value (which MatrixScoring+Validate reject).
func (m *Matrix) Name() string {
	if m == nil || m.m == nil {
		return ""
	}
	return m.m.Name
}

// Alphabet returns the residue order of the matrix ("" for the invalid
// zero value).
func (m *Matrix) Alphabet() string {
	if m == nil || m.m == nil {
		return ""
	}
	return m.m.Alphabet()
}

// Gap returns the matrix's linear gap penalty (0 for the invalid zero
// value).
func (m *Matrix) Gap() int32 {
	if m == nil || m.m == nil {
		return 0
	}
	return m.m.Gap
}

// NewMatrix builds a substitution matrix over the given alphabet (up to
// 24 symbols) from a dense score table in alphabet order, with a negative
// linear gap penalty.
func NewMatrix(name, alphabet string, scores [][]int8, gap int32) (*Matrix, error) {
	xm, err := xdrop.NewMatrix(name, alphabet, scores, gap)
	if err != nil {
		return nil, err
	}
	return &Matrix{m: xm}, nil
}

// blosumCache interns one Matrix per gap penalty, so every caller asking
// for BLOSUM62 with the same gap shares one identity — which is what lets
// the coalescer merge their requests into one batch. The cache is capped:
// gap values are attacker-controlled on serve paths (logan-serve forwards
// the request's "gap" field), and an unbounded map would let a client
// cycling gap values grow process memory forever. Beyond the cap, calls
// return fresh uncached matrices — still correct, just not merged.
const maxBlosumCache = 64

var (
	blosumMu    sync.Mutex
	blosumCache = map[int32]*Matrix{}
)

// Blosum62 returns the standard NCBI BLOSUM62 matrix with the given
// linear gap penalty (a common choice is -6). The result is cached per
// gap value (up to a fixed cap), so repeated calls return the same
// *Matrix and their Configs compare equal. It panics if gap is not
// negative; use NewMatrix for an error-returning constructor.
func Blosum62(gap int32) *Matrix {
	blosumMu.Lock()
	defer blosumMu.Unlock()
	if m, ok := blosumCache[gap]; ok {
		return m
	}
	m := &Matrix{m: xdrop.Blosum62(gap)}
	if len(blosumCache) < maxBlosumCache {
		blosumCache[gap] = m
	}
	return m
}

// scheme lowers the Config's scoring onto xdrop.Scheme, the one form the
// family takes below this package: the backend argument, the CPU pool's
// batch parameter and (with X) the coalescer lane and result-cache key are
// all this value. Only the live payload is populated, so two Configs that
// select the same scheme lower to equal values. An unset Scoring lowers to
// the (invalid) all-zero linear scheme; Validate rejects it before any
// execution.
func (c Config) scheme() xdrop.Scheme {
	switch c.Scoring.mode {
	case scoringAffine:
		return xdrop.AffineScheme(c.Scoring.affine)
	case scoringMatrix:
		if c.Scoring.matrix == nil {
			return xdrop.MatrixScheme(nil)
		}
		return xdrop.MatrixScheme(c.Scoring.matrix.m)
	default:
		return xdrop.LinearScheme(c.Scoring.linear)
	}
}

// configKey is the comparable identity of a Config — the coalescer's
// grouping key. Two requests merge into one engine batch exactly when
// their keys are equal; matrix configs compare by matrix identity, which
// the Blosum62 cache makes work across independent callers.
type configKey struct {
	x   int32
	sch xdrop.Scheme
}

func (c Config) key() configKey { return configKey{x: c.X, sch: c.scheme()} }

// ingestPair validates one Pair under the Config's alphabet and seed
// bounds and converts it to the engine's representation. Linear and
// affine configs speak DNA (upper-case ACGTN, zero-copy when already
// canonical); matrix configs validate against the matrix alphabet and
// always alias the raw bytes.
func (c Config) ingestPair(p *Pair, i int) (seq.Pair, error) {
	var q, t seq.Seq
	if c.Scoring.mode == scoringMatrix {
		m := c.Scoring.matrix.m
		if !m.ValidSeq(p.Query) {
			return seq.Pair{}, fmt.Errorf("logan: pair %d query: residues outside the %s alphabet", i, m.Name)
		}
		if !m.ValidSeq(p.Target) {
			return seq.Pair{}, fmt.Errorf("logan: pair %d target: residues outside the %s alphabet", i, m.Name)
		}
		q, t = seq.Seq(p.Query), seq.Seq(p.Target)
	} else {
		var err error
		q, err = seq.FromBytes(p.Query)
		if err != nil {
			return seq.Pair{}, fmt.Errorf("logan: pair %d query: %w", i, err)
		}
		t, err = seq.FromBytes(p.Target)
		if err != nil {
			return seq.Pair{}, fmt.Errorf("logan: pair %d target: %w", i, err)
		}
	}
	// Overflow-safe seed bounds: SeedQ+SeedLen can wrap for adversarial
	// inputs, and a pair that slips through here would fail deep in the
	// backend, or inside a merged batch it shares with other requests.
	if p.SeedQ < 0 || p.SeedT < 0 || p.SeedLen <= 0 ||
		p.SeedQ > len(q)-p.SeedLen || p.SeedT > len(t)-p.SeedLen {
		return seq.Pair{}, fmt.Errorf("logan: pair %d: seed (%d,%d,len %d) outside sequences (%d, %d)",
			i, p.SeedQ, p.SeedT, p.SeedLen, len(q), len(t))
	}
	// Overflow budget, enforced here so every entry point (engine,
	// coalescer, serve, CLI) shares it: a score accumulates at most
	// MaxAbsParam per base, so the scheme's extreme parameter times the
	// pair's combined length must stay below MaxInt32 or the int32 score
	// could wrap and be returned as garbage with a nil error.
	if int64(c.Scoring.MaxAbsParam())*int64(len(q)+len(t)) >= math.MaxInt32 {
		return seq.Pair{}, fmt.Errorf(
			"logan: pair %d: score parameters (max |%d|) times sequence length (%d) could overflow the int32 score",
			i, c.Scoring.MaxAbsParam(), len(q)+len(t))
	}
	// ID is deliberately left zero: Aligner.run owns batch IDs and
	// renumbers every pair (admission-time indices are request-relative
	// inside the coalescer's merged batches).
	return seq.Pair{
		Query: q, Target: t,
		SeedQPos: p.SeedQ, SeedTPos: p.SeedT, SeedLen: p.SeedLen,
	}, nil
}
