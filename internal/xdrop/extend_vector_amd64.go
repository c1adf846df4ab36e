//go:build amd64

package xdrop

import (
	"slices"

	"logan/internal/seq"
)

// detectISA picks the widest fused routine the CPU and the OS support.
// SSE2 is part of the amd64 baseline; AVX2 needs the CPUID/XGETBV check.
func detectISA() rowISA {
	if cpuHasAVX2() {
		return isaAVX2
	}
	return isaSSE2
}

// extendVector runs one int16 extension on the routine vectorISA names:
// the fused assembly wavefront, or wave over the portable rows when a test
// has pointed the dispatch there.
func (w *Workspace) extendVector(q, t seq.Seq, sc Scoring, x int16, trace *[]int32) Result {
	if vectorISA == isaPortable {
		return wave(&w.v, &w.rt, q, t, x, w.vectorKernelFor(sc), trace)
	}
	return w.extendFused(q, t, sc, x, trace, vectorISA == isaAVX2)
}

// fusedBudget is how many cells the fused routine computes before it
// returns to Go, so that a long extension still reaches a preemption point
// every millisecond or so (assembly is never preempted asynchronously).
const fusedBudget = 1 << 20

// fusedState is what the fused routine and its Go driver share: the
// extension's constants, set once; wave's loop variables, saved whenever
// the routine returns and reloaded when it resumes; and two values the
// routine keeps per anti-diagonal where its registers cannot. The
// assembly reaches the fields by the offsets go_asm.h generates from this
// declaration.
type fusedState struct {
	m, n, x              int
	match, mismatch, gap int
	limit                int64 // pause once cells reaches this

	d, lo, hi          int // the next anti-diagonal and its unclipped band
	best, bestI, bestJ int // best is band-local (rebased)
	// Workspace.v[phase] is written next, v[(phase+1)%3] holds the previous
	// anti-diagonal and v[(phase+2)%3] the one before; cell i of those two
	// is slot i-org of their buffer.
	phase, org2, org3 int
	cells             int64
	maxBand           int
	done              bool

	thr, uHi int
}

// extendFused is wave for int16 cells with the whole loop in one assembly
// call: scores, extents, tie order, work counters and trace are wave's
// over vectorKernel, bit for bit (FuzzExtendVectorDifferential). The call
// returns early only to pause — once the band-local best reaches the
// rebase mark, or once fusedBudget cells have run — and resumes from
// fusedState. wide selects the routine with 16-lane blocks.
func (w *Workspace) extendFused(q, t seq.Seq, sc Scoring, x int16, trace *[]int32, wide bool) Result {
	m, n := len(q), len(t)
	if m == 0 || n == 0 {
		return Result{}
	}
	stride := bandLen(m, n)
	for i := range w.v {
		if cap(w.v[i]) < stride {
			w.v[i] = make([]int16, stride)
		}
		w.v[i] = w.v[i][:stride]
	}
	if cap(w.rt) < n {
		w.rt = make(seq.Seq, n)
	}
	// The trace gains at most one width per anti-diagonal after d = 0.
	var tr *int32
	traced := 0
	if trace != nil {
		traced = len(*trace)
		*trace = slices.Grow(*trace, m+n)
		tr = &(*trace)[:cap(*trace)][traced]
	}

	// d = 0 holds only S(0,0) = 0, bracketed by sentinels, in w.v[1].
	w.v[1][0], w.v[1][1], w.v[1][2] = negInf16, 0, negInf16
	st := fusedState{
		m: m, n: n, x: int(x),
		match: int(sc.Match), mismatch: int(sc.Mismatch), gap: int(sc.Gap),
		d: 1, lo: 0, hi: 1,
		phase: 0, org2: -1,
		cells: 1, maxBand: 1,
	}
	var base int32
	for {
		st.limit = st.cells + fusedBudget
		if wide {
			vectorExtendAVX2(&st, &w.v, &q[0], &t[0], &w.rt[0], tr)
		} else {
			vectorExtendSSE2(&st, &w.v, &q[0], &t[0], &w.rt[0], tr)
		}
		if st.done {
			break
		}
		if best := int16(st.best); best >= vectorRebaseAt {
			// The diagonal being written next is rewritten before it is
			// read, so sweeping all three buffers is as exact as wave's two.
			for i := range w.v {
				rebase(w.v[i], best, negInf16Guard)
			}
			base += int32(best)
			st.best = 0
		}
	}
	// Anti-diagonals 0 .. st.d-1 ran; the trace holds the ones after 0.
	if trace != nil {
		*trace = (*trace)[:traced+st.d-1]
	}
	return Result{
		Score: base + int32(st.best), QueryEnd: st.bestI, TargetEnd: st.bestJ,
		Cells: st.cells, AntiDiags: st.d, MaxBand: st.maxBand, SumBand: st.cells,
	}
}

// vectorExtendSSE2 and vectorExtendAVX2 (extend_vector_amd64.s) are the
// fused routine: every anti-diagonal of the extension from st.d on, in one
// call, until the band empties, the matrix ends, or a pause condition (see
// extendFused) holds at the top of an anti-diagonal. They differ only in
// the interior blocks of rows 16 cells or wider, 16-lane AVX2 against
// 8-lane SSE2. Neither touches q, t or rt outside the bases the extension
// reads (TestExtendVectorGuardPages), nor the diagonal buffers outside
// their first bandLen(m, n) slots. trace, when not nil, receives one
// width per anti-diagonal d at trace[d-1], and must have room for m+n.
//
//go:noescape
func vectorExtendSSE2(st *fusedState, diags *[3][]int16, q, t, rt *byte, trace *int32)

//go:noescape
func vectorExtendAVX2(st *fusedState, diags *[3][]int16, q, t, rt *byte, trace *int32)

// cpuHasAVX2 reports whether AVX2 instructions may be used: CPUID leaf 7
// EBX bit 5, and the OS saves the YMM state (leaf 1 OSXSAVE and AVX, XCR0
// bits 1 and 2).
func cpuHasAVX2() bool
