//go:build amd64

package xdrop

import (
	"slices"

	"logan/internal/seq"
)

// detectISA picks the widest fused routine the CPU and the OS support.
// SSE2 is part of the amd64 baseline; AVX2 and AVX-512 need the
// CPUID/XGETBV check.
func detectISA() rowISA {
	switch {
	case cpuHasAVX512():
		return isaAVX512
	case cpuHasAVX2():
		return isaAVX2
	}
	return isaSSE2
}

// extendVector runs one int16 extension on the fused routine vectorISA
// names.
func (w *Workspace) extendVector(q, t seq.Seq, sc Scoring, x int16, trace *[]int32) Result {
	return w.extendFused(q, t, sc, x, trace, vectorISA)
}

// regReload is the widest band at which the AVX-512 routine moves the
// carried anti-diagonals from memory into registers, where they stay while
// the band fits the 128-lane frame. It must leave the frame two spare
// lanes (at most 126), and sits well below 128 so that a band hovering
// near the edge does not move back and forth on every anti-diagonal; at
// 112 it takes x=100's bands (78 cells on a 15 %-divergent pair) with 25
// lanes a side for indels to drift the band off the main diagonal.
const regReload = 112

// regNarrow is the widest band that enters a 64-lane frame instead: a
// 64-lane row does half the vector work, and at x=25 and x=50 the
// 128-lane one measured slower (see extend_vector_amd64.s). A band that
// outgrows the 64 lanes goes back to memory for one anti-diagonal and
// returns in a 128-lane frame.
const regNarrow = 48

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

	// The AVX-512 routine's register mode: lanes is the width of its frame
	// (64 or 128) while the carried anti-diagonals live in registers, 0
	// while they are in memory (always across a return to Go); how many
	// anti-diagonals it computed there, how often it moved the rows into
	// and out of them, and how many of the moves in were into a 128-lane
	// frame. thr and uHi are its scratch at the handoffs.
	lanes                          int
	regRows, toRegs, toMem, toWide int
}

// extendFused is wave for int16 cells with the whole loop in one assembly
// call: scores, extents, tie order, work counters and trace are those of
// wave over linearRow, bit for bit (FuzzExtendVectorDifferential). The call
// returns early only to pause — once the band-local best reaches the
// rebase mark, or once fusedBudget cells have run — and resumes from
// fusedState. isa selects the routine.
func (w *Workspace) extendFused(q, t seq.Seq, sc Scoring, x int16, trace *[]int32, isa rowISA) Result {
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
	if cap(w.rt) < n+2*fusedPad {
		w.rt = make(seq.Seq, n+2*fusedPad)
	}
	rt := &w.rt[:n+2*fusedPad][fusedPad]
	var qp *byte
	if isa == isaAVX512 {
		if cap(w.qp) < m+2*fusedPad {
			w.qp = make(seq.Seq, m+2*fusedPad)
		}
		qp = &w.qp[:m+2*fusedPad][fusedPad]
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
		switch isa {
		case isaAVX512:
			vectorExtendAVX512(&st, &w.v, &q[0], &t[0], rt, tr, qp)
		case isaAVX2:
			vectorExtendAVX2(&st, &w.v, &q[0], &t[0], rt, tr)
		default:
			vectorExtendSSE2(&st, &w.v, &q[0], &t[0], rt, tr)
		}
		if st.done {
			break
		}
		if best := int16(st.best); best >= vectorRebaseAt {
			// Subtract the best from the two carried diagonals so the
			// upcoming scores stay centered near zero; the diagonal being
			// written next is rewritten before it is read, so sweeping it
			// too is harmless.
			for i := range w.v {
				rebase(w.v[i], best)
			}
			base += int32(best)
			st.best = 0
		}
	}
	w.modes.rows += st.regRows
	w.modes.toRegs += st.toRegs
	w.modes.toMem += st.toMem
	w.modes.toWide += st.toWide
	// Anti-diagonals 0 .. st.d-1 ran; the trace holds the ones after 0.
	if trace != nil {
		*trace = (*trace)[:traced+st.d-1]
	}
	return Result{
		Score: base + int32(st.best), QueryEnd: st.bestI, TargetEnd: st.bestJ,
		Cells: st.cells, AntiDiags: st.d, MaxBand: st.maxBand, SumBand: st.cells,
	}
}

// vectorExtendSSE2, vectorExtendAVX2 and vectorExtendAVX512
// (extend_vector_amd64.s) are the fused routine: every anti-diagonal of
// the extension from st.d on, in one call, until the band empties, the
// matrix ends, or a pause condition (see extendFused) holds at the top of
// an anti-diagonal. The first two differ only in the interior blocks of
// rows 16 cells or wider, 16-lane AVX2 against 8-lane SSE2. None reads q
// or t outside [0, m) and [0, n), touches rt outside
// [-fusedPad, n+fusedPad) (the AVX-512 routine's windows read the slack;
// the others touch only the bases the extension reads), or the diagonal
// buffers outside their first bandLen(m, n) slots
// (TestExtendVectorGuardPages). rt points fusedPad bytes into a buffer
// of n+2*fusedPad. trace, when not nil, receives one width per
// anti-diagonal d at trace[d-1], and must have room for m+n.
//
//go:noescape
func vectorExtendSSE2(st *fusedState, diags *[3][]int16, q, t, rt *byte, trace *int32)

//go:noescape
func vectorExtendAVX2(st *fusedState, diags *[3][]int16, q, t, rt *byte, trace *int32)

// vectorExtendAVX512 is vectorExtendAVX2 with a register mode: while the
// band fits a 64- or 128-lane frame, the two carried anti-diagonals live in ZMM
// registers and each new one is computed from them with no store or
// reload, from d = 1 to the matrix edge (see extend_vector_amd64.s). Its
// windows read q from qp, a copy of q at fusedPad bytes into a buffer of
// m+2*fusedPad that the routine fills one base per anti-diagonal, as it
// fills rt, and never touch the buffers outside them.
//
//go:noescape
func vectorExtendAVX512(st *fusedState, diags *[3][]int16, q, t, rt *byte, trace *int32, qp *byte)

// cpuHasAVX2 reports whether AVX2 instructions may be used: CPUID leaf 7
// EBX bit 5, and the OS saves the YMM state (leaf 1 OSXSAVE and AVX, XCR0
// bits 1 and 2).
func cpuHasAVX2() bool

// cpuHasAVX512 reports whether the AVX-512 routine may run: CPUID leaf 7
// EBX AVX512F, AVX512BW, AVX512VL (its register rows compare 32-byte
// windows into k-masks), AVX2, BMI1 and BMI2, and the OS saves the opmask
// and ZMM state (leaf 1 OSXSAVE and AVX, XCR0 bits 1, 2 and 5-7).
func cpuHasAVX512() bool

// rebase subtracts delta from every live cell of a carried int16
// diagonal, leaving sentinels (everything at or below negInf16Guard)
// untouched. The sweep runs over the whole buffer — the live span is
// sentinel-bracketed inside it — and fires at most once per rebase mark
// of score gained, so its cost amortizes to nothing.
func rebase(a []int16, delta int16) {
	for i := range a {
		if a[i] > negInf16Guard {
			a[i] -= delta
		}
	}
}
