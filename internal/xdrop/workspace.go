package xdrop

import (
	"fmt"
	"sync"

	"logan/internal/seq"
)

// Workspace is the reusable scratch of one X-drop lane: the three rolling
// anti-diagonal buffers of wave (int32), the two extension slots of the
// fused routines (int16 diagonals, amd64 only), whose first also stages
// every extension the workspace runs (fusedSlot.stage), and the direction
// arena of traceback (ExtendSeedOps). A Workspace makes repeated
// extensions allocation-free, under every scheme, once the buffers have
// grown to the workload's sequence lengths. It is not safe for concurrent
// use; give each worker goroutine its own (see Pool).
type Workspace struct {
	d     [3][]int32 // scalar, matrix and affine (three planes) diagonals
	fused [2]fusedSlot

	// Traceback directions: one byte per interior cell, located per
	// anti-diagonal by rows (see opsRow).
	dirs []byte
	rows []dirRow

	// What the AVX-512 routine's register mode did over the extensions
	// this workspace ran; tests read it to prove every path ran.
	modes regModes
}

// regModes counts the anti-diagonals the AVX-512 routines computed in
// registers and, among them, in the paired routine; the handoffs between
// registers and memory, and the handoffs into a 128-lane frame among the
// moves into registers.
type regModes struct{ rows, paired, toRegs, toMem, toWide int }

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// wsPool backs ExtendSeed, the package-level one-shot entry point, so
// that its callers still reuse scratch across calls.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// extendSeed is the one seed-and-extend wrapper (paper Fig. 5): split the
// pair at the seed, extend right over the suffixes and left over the
// reversed prefixes (each staged once, so every kernel walks memory
// forward in both directions, the transformation LOGAN applies for
// coalescing, Fig. 6) and add the seed's own score under the scheme. A
// non-nil ops takes the traceback path (seedOps, linear schemes only);
// the served paths pass nil. Matrix-mode sequences must already be
// validated against the matrix alphabet (the engine validates at ingest,
// the coalescer at admission): an unvalidated unknown residue scores as
// the matrix minimum instead of erroring.
func (w *Workspace) extendSeed(q, t seq.Seq, qPos, tPos, seedLen int, sch Scheme, x int32, k Kernel, ops *[]Op) (SeedResult, error) {
	if err := sch.Validate(); err != nil {
		return SeedResult{}, err
	}
	if err := CheckSeed(q, t, qPos, tPos, seedLen); err != nil {
		return SeedResult{}, err
	}
	qEnd, tEnd := qPos+seedLen, tPos+seedLen
	r := SeedResult{SeedLen: seedLen}
	if ops != nil {
		r.Left, r.Right = w.seedOps(q, t, qPos, tPos, seedLen, sch.Linear, x, ops)
	} else {
		r.Left = w.extend(q[:qPos], t[:tPos], true, sch, x, k, nil)
		r.Right = w.extend(q[qEnd:], t[tEnd:], false, sch, x, k, nil)
	}
	JoinSeed(&r, qPos, tPos, sch.seedScore(q[qPos:qEnd], t[tPos:tEnd]))
	return r, nil
}

// CheckSeed reports a seed that does not lie inside both sequences: every
// seed-and-extend path, the simulated device's included, rejects a pair
// through it.
func CheckSeed(q, t seq.Seq, qPos, tPos, seedLen int) error {
	if !seq.SeedInside(len(q), len(t), qPos, tPos, seedLen) {
		return fmt.Errorf("xdrop: seed (%d,%d,len %d) outside sequences (%d, %d)",
			qPos, tPos, seedLen, len(q), len(t))
	}
	return nil
}

// vectorSeed reports whether a seed's extensions run the int16 vector
// kernel: k picks it and the scheme is inside its envelope.
func vectorSeed(sch Scheme, x int32, k Kernel) bool {
	return k == KernelVector && sch.Kind == SchemeLinear && VectorEligible(sch.Linear, x)
}

// JoinSeed completes r, whose SeedLen, Left and Right are set, for the
// seed at (qPos, tPos) scoring seedScore: the combined score and the
// aligned intervals. Every seed-and-extend path, the simulated device's
// included, joins a pair's two extensions through it.
func JoinSeed(r *SeedResult, qPos, tPos int, seedScore int32) {
	r.Score = r.Left.Score + r.Right.Score + seedScore
	r.QBegin = qPos - r.Left.QueryEnd
	r.TBegin = tPos - r.Left.TargetEnd
	r.QEnd = qPos + r.SeedLen + r.Right.QueryEnd
	r.TEnd = tPos + r.SeedLen + r.Right.TargetEnd
}

// extend runs one extension of a validated scheme over q and t, or over
// both reversed for rev (a seed's left extension): the highest-scoring
// semi-global alignment between prefixes of the two (paper §III-A), with
// the search pruned by the X-drop rule: a cell more than x below the
// running best is set to -inf and the band shrinks past it, until the
// band empties or the matrix is exhausted. Only three anti-diagonals are
// kept (Fig. 1), so memory is O(band), not O(mn). Scores, extents and work
// counters are ExtendReference's on every kernel. This is the only scheme
// branch a pair takes, outside the per-cell loops. The vector kernel (k, inside
// its envelope) stages the extension in its own slot; every other kernel
// is wave over the first slot's staging. A non-nil trace receives the
// band widths (see ExtendTrace).
func (w *Workspace) extend(q, t seq.Seq, rev bool, sch Scheme, x int32, k Kernel, trace *[]int32) Result {
	if len(q) == 0 || len(t) == 0 {
		return Result{}
	}
	if vectorSeed(sch, x, k) {
		return w.extendVector(q, t, rev, sch.Linear, int16(x), trace)
	}
	qs, rt := w.fused[0].stage(q, t, rev)
	switch sch.Kind {
	case SchemeAffine:
		return wave(&w.d, qs, rt, x, affineRow{sch.Affine, bandLen(len(q), len(t))}, trace)
	case SchemeMatrix:
		return wave(&w.d, qs, rt, x, matrixRow{sch.Matrix}, trace)
	default:
		return wave(&w.d, qs, rt, x, linearRow(sch.Linear), trace)
	}
}

// linearRow is the scalar int32 row kernel of the paper's linear DNA
// scheme.
type linearRow Scoring

func (linearRow) planes() int { return 1 }

func (l linearRow) gaps() (first, rest int32) { return l.Gap, l.Gap }

func (l linearRow) row(d3, d2m1, out []int32, qs, ts seq.Seq, thr, best int32) (int32, int) {
	kn := len(out)
	d3 = d3[:kn]
	d2 := d2m1[1:][:kn]
	qs = qs[:kn]
	ts = ts[:kn]
	match, mismatch, gap := l.Match, l.Mismatch, l.Gap
	// d2m1 trails d2 by one slot, so the "up" gap source is carried in a
	// register instead of re-loaded.
	up := d2m1[0]
	bestK := -1
	for k := 0; k < kn; k++ {
		add := mismatch
		if qs[k] == ts[k] {
			add = match
		}
		s := d3[k] + add
		cur := d2[k]
		g := up
		if cur > g {
			g = cur
		}
		up = cur
		if g += gap; g > s {
			s = g
		}
		// s > best implies s >= thr (x >= 0), so the two tests are
		// independent and the clamp compiles to a conditional move.
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
