package xdrop

import (
	"fmt"
	"sync"

	"logan/internal/seq"
)

// Workspace is the reusable scratch of one X-drop lane: the three rolling
// anti-diagonal buffers of wave (int32) and the fused routine's two
// extension slots (int16, amd64 only), the reversal staging of the seed
// wrapper and the direction arena of traceback (ExtendSeedOps). A
// Workspace makes repeated extensions allocation-free, under every
// scheme, once the buffers have grown to the workload's sequence lengths.
// It is not safe for concurrent use; give each worker goroutine its own
// (see Pool).
type Workspace struct {
	d          [3][]int32 // scalar, matrix and affine (three planes) diagonals
	rt         seq.Seq    // wave's reversed target, grown one base per anti-diagonal
	revQ, revT seq.Seq
	fused      [2]fusedSlot

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

// wsPool backs the package-level one-shot entry points so that their
// callers still reuse scratch across calls.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// extendPooled backs the package-level one-shot extension entry points.
func extendPooled(q, t seq.Seq, sch Scheme, x int32) Result {
	w := wsPool.Get().(*Workspace)
	r := w.extend(q, t, sch, x, KernelScalar)
	wsPool.Put(w)
	return r
}

// extendSeedPooled backs the package-level one-shot seed entry points.
func extendSeedPooled(q, t seq.Seq, qPos, tPos, seedLen int, sch Scheme, x int32) (SeedResult, error) {
	w := wsPool.Get().(*Workspace)
	r, err := w.ExtendSeedScheme(q, t, qPos, tPos, seedLen, sch, x)
	wsPool.Put(w)
	return r, err
}

// ExtendSeedKernel is the workspace form of the package-level ExtendSeed
// with the extension kernel chosen by the caller — the per-pair entry
// point of the batch-level kernel selection (SelectKernel). Results are
// bit-identical across kernels; forcing one is how the benchmarks and the
// fallback tests compare them.
func (w *Workspace) ExtendSeedKernel(q, t seq.Seq, qPos, tPos, seedLen int, sc Scoring, x int32, k Kernel) (SeedResult, error) {
	return w.extendSeed(q, t, qPos, tPos, seedLen, LinearScheme(sc), x, k, nil)
}

// ExtendSeedScheme runs one seed-and-extend under any scheme family on
// the scalar kernels. Matrix-mode sequences must already be validated
// against the matrix alphabet (the engine validates at ingest, the
// coalescer at admission; ExtendSeedMatrix scans them itself): an
// unvalidated unknown residue scores as the matrix minimum instead of
// erroring.
func (w *Workspace) ExtendSeedScheme(q, t seq.Seq, qPos, tPos, seedLen int, sch Scheme, x int32) (SeedResult, error) {
	return w.extendSeed(q, t, qPos, tPos, seedLen, sch, x, KernelScalar, nil)
}

// extendSeed is the one seed-and-extend wrapper (paper Fig. 5): split the
// pair at the seed, extend right over the suffixes and left over the
// reversed prefixes — staged into the workspace, so the row kernels walk
// memory forward in both directions, the transformation LOGAN applies for
// coalescing (Fig. 6) — and add the seed's own score under the scheme.
// A non-nil ops takes the traceback path (seedOps, linear schemes only);
// the served paths pass nil.
func (w *Workspace) extendSeed(q, t seq.Seq, qPos, tPos, seedLen int, sch Scheme, x int32, k Kernel, ops *[]Op) (SeedResult, error) {
	if err := sch.Validate(); err != nil {
		return SeedResult{}, err
	}
	if err := checkSeed(q, t, qPos, tPos, seedLen); err != nil {
		return SeedResult{}, err
	}
	qEnd, tEnd := qPos+seedLen, tPos+seedLen
	r := SeedResult{SeedLen: seedLen}
	switch {
	case ops != nil:
		w.revQ = seq.AppendReverse(w.revQ[:0], q[:qPos])
		w.revT = seq.AppendReverse(w.revT[:0], t[:tPos])
		r.Left, r.Right = w.seedOps(q[qPos:qEnd], t[tPos:tEnd], q[qEnd:], t[tEnd:], sch.Linear, x, ops)
	case vectorSeed(sch, x, k):
		// The vector kernel stages the reversed prefixes itself (on
		// AVX-512 straight into the padded copy its windows read).
		r.Left = w.extendVector(q[:qPos], t[:tPos], true, sch.Linear, int16(x), nil)
		r.Right = w.extendVector(q[qEnd:], t[tEnd:], false, sch.Linear, int16(x), nil)
	default:
		w.revQ = seq.AppendReverse(w.revQ[:0], q[:qPos])
		w.revT = seq.AppendReverse(w.revT[:0], t[:tPos])
		r.Left = w.extend(w.revQ, w.revT, sch, x, k)
		r.Right = w.extend(q[qEnd:], t[tEnd:], sch, x, k)
	}
	joinSeed(&r, qPos, tPos, sch.seedScore(q[qPos:qEnd], t[tPos:tEnd]))
	return r, nil
}

// checkSeed reports a seed that does not lie inside both sequences.
func checkSeed(q, t seq.Seq, qPos, tPos, seedLen int) error {
	// qPos > len(q)-seedLen rather than qPos+seedLen > len(q): the sum can
	// overflow for adversarial positions (e.g. MaxInt from a JSON payload),
	// which would pass the check and panic on the slices after it.
	if qPos < 0 || tPos < 0 || seedLen <= 0 || qPos > len(q)-seedLen || tPos > len(t)-seedLen {
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

// joinSeed completes r, whose SeedLen, Left and Right are set, for the
// seed at (qPos, tPos) scoring seedScore: the combined score and the
// aligned intervals.
func joinSeed(r *SeedResult, qPos, tPos int, seedScore int32) {
	r.Score = r.Left.Score + r.Right.Score + seedScore
	r.QBegin = qPos - r.Left.QueryEnd
	r.TBegin = tPos - r.Left.TargetEnd
	r.QEnd = qPos + r.SeedLen + r.Right.QueryEnd
	r.TEnd = tPos + r.SeedLen + r.Right.TargetEnd
}

// extend runs one extension of a validated scheme through the wavefront
// driver: the only scheme branch a pair takes, outside the per-cell loops.
// k picks between the two linear kernels; the affine and matrix kernels
// are scalar only.
func (w *Workspace) extend(q, t seq.Seq, sch Scheme, x int32, k Kernel) Result {
	switch {
	case sch.Kind == SchemeAffine:
		return wave(&w.d, &w.rt, q, t, x, affineRow{sch.Affine, bandLen(len(q), len(t))}, nil)
	case sch.Kind == SchemeMatrix:
		return wave(&w.d, &w.rt, q, t, x, matrixRow{sch.Matrix}, nil)
	case k == KernelVector:
		return w.ExtendVector(q, t, sch.Linear, x)
	default:
		return w.Extend(q, t, sch.Linear, x)
	}
}

// Extend is the workspace form of the package-level Extend: the wavefront
// driver over the scalar int32 row kernel. Scores, extents and work
// counters are bit-identical to ExtendReference on every input.
func (w *Workspace) Extend(q, t seq.Seq, sc Scoring, x int32) Result {
	return wave(&w.d, &w.rt, q, t, x, linearRow(sc), nil)
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
