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
// names, in the workspace's first slot.
func (w *Workspace) extendVector(q, t seq.Seq, rev bool, sc Scoring, x int16, trace *[]int32) Result {
	return w.extendFused(q, t, rev, sc, x, trace, vectorISA)
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

// extendFused is wave for int16 cells with the whole loop in one assembly
// call: scores, extents, tie order, work counters and trace are those of
// wave over linearRow, bit for bit (FuzzExtendVectorDifferential). The call
// returns early only to pause — once the band-local best reaches the
// rebase mark, or once fusedBudget cells have run — and resumes from
// fusedState. rev extends over q and t reversed; isa selects the routine.
func (w *Workspace) extendFused(q, t seq.Seq, rev bool, sc Scoring, x int16, trace *[]int32, isa rowISA) Result {
	s := &w.fused[0]
	if !s.start(q, t, rev, sc, x, trace, isa) {
		return Result{}
	}
	s.run(isa)
	return s.finish(&w.modes)
}

// grow returns b resized to n, reallocated only when its capacity is short.
func grow[E any](b []E, n int) []E {
	if cap(b) < n {
		return make([]E, n)
	}
	return b[:n]
}

// start stages one extension on s for the fused routine isa names, from
// anti-diagonal 1: its diagonal buffers, its reversed target rt (filled
// by the routine one base per anti-diagonal), and on AVX-512 the padded
// copy of q the routine reads, filled here whole. rev extends over q and
// t reversed, staged into the slot. It reports false for an empty
// extension, whose Result is the zero one.
func (s *fusedSlot) start(q, t seq.Seq, rev bool, sc Scoring, x int16, trace *[]int32, isa rowISA) bool {
	if len(q) == 0 || len(t) == 0 {
		return false
	}
	if rev {
		s.revT = seq.AppendReverse(s.revT[:0], t)
		t = s.revT
	}
	s.init(q, rev, len(t), sc, x, trace, isa)
	s.st.t, s.st.fill = &t[0], len(t)
	return true
}

// startPaired stages one extension on s for the paired routine, which
// does not fill rt: rt is filled here whole (a left extension's rt is its
// target prefix as it stands, so it stages no reversed target), and the
// carried rows go into a 64-lane frame. It reports false for an empty
// extension.
func (s *fusedSlot) startPaired(q, t seq.Seq, rev bool, sc Scoring, x int16, trace *[]int32) bool {
	if len(q) == 0 || len(t) == 0 {
		return false
	}
	s.init(q, rev, len(t), sc, x, trace, isaAVX512)
	if rt := s.rt[fusedPad:fusedPad]; rev {
		copy(rt[:len(t)], t)
	} else {
		seq.AppendReverse(rt, t)
	}
	s.frame() // d = 1: a band two cells wide
	return true
}

// init is the staging start and startPaired share: q (on AVX-512 into
// the padded copy, reversed there for rev; elsewhere reversed into revQ
// for rev), the diagonal buffers with anti-diagonal 0 in place, rt's
// buffer, the trace, and the state at anti-diagonal 1, with t and fill
// left to the caller.
func (s *fusedSlot) init(q seq.Seq, rev bool, n int, sc Scoring, x int16, trace *[]int32, isa rowISA) {
	m := len(q)
	var qr *byte
	if isa == isaAVX512 {
		s.qp = grow(s.qp, m+2*fusedPad)
		if qs := s.qp[fusedPad:fusedPad]; rev {
			seq.AppendReverse(qs, q)
		} else {
			copy(qs[:m], q)
		}
		qr = &s.qp[fusedPad]
	} else {
		if rev {
			s.revQ = seq.AppendReverse(s.revQ[:0], q)
			q = s.revQ
		}
		qr = &q[0]
	}
	stride := bandLen(m, n)
	for i := range s.v {
		s.v[i] = grow(s.v[i], stride)
	}
	s.rt = grow(s.rt, n+2*fusedPad)
	// The trace gains at most one width per anti-diagonal after d = 0.
	var tr *int32
	s.trace = trace
	if trace != nil {
		s.traced = len(*trace)
		*trace = slices.Grow(*trace, m+n)
		tr = &(*trace)[:cap(*trace)][s.traced]
	}

	// d = 0 holds only S(0,0) = 0, bracketed by sentinels, in v[1].
	s.v[1][0], s.v[1][1], s.v[1][2] = negInf16, 0, negInf16
	s.st = fusedState{
		m: m, n: n, x: int(x),
		match: int(sc.Match), mismatch: int(sc.Mismatch), gap: int(sc.Gap),
		d: 1, lo: 0, hi: 1,
		phase: 0, org2: -1,
		cells: 1, maxBand: 1,
		v: &s.v, q: qr, rt: &s.rt[fusedPad], trace: tr,
	}
	s.base = 0
}

// run runs the extension on s to its end on the solo routine isa names,
// rebasing between calls. Rows held in the paired routine's frame go back
// to the buffers first.
func (s *fusedSlot) run(isa rowISA) {
	s.spill()
	for !s.st.done {
		s.st.limit = s.st.cells + fusedBudget
		switch isa {
		case isaAVX512:
			vectorExtendAVX512(&s.st)
		case isaAVX2:
			vectorExtendAVX2(&s.st)
		default:
			vectorExtendSSE2(&s.st)
		}
		s.rebase()
	}
}

// rebase subtracts the band-local best from the carried anti-diagonals
// once it reaches the rebase mark, so the upcoming scores stay centered
// near zero, and adds it to the slot's base. On the diagonal buffers the
// one being written next is rewritten before it is read, so sweeping it
// too is harmless.
func (s *fusedSlot) rebase() {
	best := int16(s.st.best)
	if s.st.done || best < vectorRebaseAt {
		return
	}
	if s.st.lanes != 0 {
		for i := range s.st.frame {
			rebase(s.st.frame[i][:], best)
		}
	} else {
		for i := range s.v {
			rebase(s.v[i], best)
		}
	}
	s.base += int32(best)
	s.st.best = 0
}

// finish adds the extension's register-mode counts to modes and returns
// its Result; the trace, if any, then holds its widths.
func (s *fusedSlot) finish(modes *regModes) Result {
	st := &s.st
	modes.rows += st.regRows
	modes.paired += st.paired
	modes.toRegs += st.toRegs
	modes.toMem += st.toMem
	modes.toWide += st.toWide
	// Anti-diagonals 0 .. st.d-1 ran; the trace holds the ones after 0.
	if s.trace != nil {
		*s.trace = (*s.trace)[:s.traced+st.d-1]
		s.trace = nil
	}
	// The caller's sequences are not held past the extension.
	st.q, st.t, st.trace = nil, nil, nil
	return Result{
		Score: s.base + int32(st.best), QueryEnd: st.bestI, TargetEnd: st.bestJ,
		Cells: st.cells, AntiDiags: st.d, MaxBand: st.maxBand, SumBand: st.cells,
	}
}

// carried returns the buffers holding the previous anti-diagonal (a2) and
// the one before (a3), and the lanes of the paired routine's frame that
// hold them: a2 is frame[0] for odd d. Their cells the next anti-diagonal
// reads are [A, B] of a2 and [A, B-1] of a3 (see the solo routine's
// reload).
func (s *fusedSlot) carried() (a2, a3 []int16, f2, f3 *[64]int16, A, B int) {
	st := &s.st
	a2, a3 = s.v[(st.phase+1)%3], s.v[(st.phase+2)%3]
	f2, f3 = &st.frame[0], &st.frame[1]
	if st.d%2 == 0 {
		f2, f3 = f3, f2
	}
	return a2, a3, f2, f3, max(st.lo-1, 0), min(st.hi, st.d-1)
}

// frame moves the carried anti-diagonals from the buffers into a 64-lane
// frame that centers the band, as the solo routine's reload does, and
// reports true; a band wider than regNarrow stays in memory (false).
// Lane l of the previous anti-diagonal holds cell F_d - e + l (e = 1 for
// even d) and of the one before cell F_d - 1 + l; every lane holding no
// carried cell holds the sentinel.
func (s *fusedSlot) frame() bool {
	st := &s.st
	width := st.hi - st.lo + 1
	if width > regNarrow {
		return false
	}
	st.f = st.lo - (64-width)/2
	e := 1 - st.d%2
	a2, a3, f2, f3, A, B := s.carried()
	for l := range f2 {
		f2[l], f3[l] = negInf16, negInf16
	}
	for c := A; c <= B; c++ {
		f2[c-st.f+e] = a2[c-st.org2]
	}
	for c := A; c < B; c++ {
		f3[c-st.f+1] = a3[c-st.org3]
	}
	st.lanes = 64
	st.toRegs++
	return true
}

// spill moves the carried anti-diagonals from the paired routine's frame
// back to the buffers, in the memory layout with cell A at slot 0 of
// each, as the solo routine's spill does: a cell outside the frame is
// dead (every live cell entered the frame with its band).
func (s *fusedSlot) spill() {
	st := &s.st
	if st.lanes == 0 {
		return
	}
	e := 1 - st.d%2
	a2, a3, f2, f3, A, B := s.carried()
	lane := func(f *[64]int16, l int) int16 {
		if l < 0 || l >= len(f) {
			return negInf16
		}
		return f[l]
	}
	for c := A; c <= B; c++ {
		a2[c-A] = lane(f2, c-st.f+e)
	}
	for c := A; c < B; c++ {
		a3[c-A] = lane(f3, c-st.f+1)
	}
	st.org2, st.org3 = A, A
	st.lanes = 0
	st.toMem++
}

// stepPair advances the extensions in w's two slots, both framed, in the
// paired routine until one of them ends, pauses or leaves its frame, and
// then settles each: one whose band drifted out of the frame moves into a
// new one, or, when the band has grown past regNarrow, runs to its end on
// the solo routine; one that reached the rebase mark is rebased.
// Afterwards each slot is done or framed.
func (w *Workspace) stepPair() {
	a, b := &w.fused[0].st, &w.fused[1].st
	d0 := [2]int{a.d, b.d}
	for _, st := range [2]*fusedState{a, b} {
		lo, hi := uint(st.lo-st.f), uint(st.hi-st.f)
		st.band = (1<<(hi+1) - 1) &^ (1<<lo - 1)
		// No band is wider than the frame, so fusedBudget/64
		// anti-diagonals stay within the cell budget.
		st.limit = int64(st.d + fusedBudget/64)
		// F_d = c + floor(d/2) while the frame stands. The band anti-
		// diagonal d computes for d+1 needs no clip while all 64 lanes of
		// F_d lie inside the matrix: d+1-n <= F_d and F_d+64 <= m.
		c := st.f - st.d/2
		st.edge = min(2*(st.n+c-1)+1, 2*(st.m-64-c)+2, st.d+fusedBudget/64)
	}
	vectorExtendPairAVX512(a, b)
	for i := range w.fused {
		s := &w.fused[i]
		st := &s.st
		st.paired += st.d - d0[i]
		st.regRows += st.d - d0[i]
		switch {
		case st.done:
		case st.lo < st.f || st.hi >= st.f+64:
			s.spill()
			if !s.frame() {
				s.run(isaAVX512)
			}
		default:
			s.rebase()
		}
	}
}

// vectorExtendSSE2, vectorExtendAVX2 and vectorExtendAVX512
// (extend_vector_amd64.s) are the fused routine: every anti-diagonal of
// the extension from st.d on, in one call, until the band empties, the
// matrix ends, or a pause condition (see extendFused) holds at the top of
// an anti-diagonal; st holds every pointer they read through. The first
// two differ only in the interior blocks of rows 16 cells or wider,
// 16-lane AVX2 against 8-lane SSE2. None reads q or t outside [0, m) and
// [0, n), touches rt outside [-fusedPad, n+fusedPad) (the AVX-512
// routine's windows read the slack; the others touch only the bases the
// extension reads), or the diagonal buffers outside their first
// bandLen(m, n) slots (TestExtendVectorGuardPages).
//
//go:noescape
func vectorExtendSSE2(st *fusedState)

//go:noescape
func vectorExtendAVX2(st *fusedState)

// vectorExtendAVX512 is vectorExtendAVX2 with a register mode: while the
// band fits a 64- or 128-lane frame, the two carried anti-diagonals live in ZMM
// registers and each new one is computed from them with no store or
// reload, from d = 1 to the matrix edge (see extend_vector_amd64.s). Its
// q is the slot's padded copy, fusedPad bytes into a buffer of
// m+2*fusedPad that start fills whole; its windows read the slack of that
// copy and of rt, and never touch the buffers outside them.
//
//go:noescape
func vectorExtendAVX512(st *fusedState)

// vectorExtendPairAVX512 advances two extensions at once, each from
// anti-diagonal d on, in the 64-lane frame of its fusedState (lanes 64):
// each turn of its loop computes one anti-diagonal of a and then one of b,
// in registers of their own, so that the latency of one row hides behind
// the work of the other. It returns as soon as either extension ends,
// pauses (as the solo routine does) or has a next band that leaves its
// frame, with both frames, their F_d and their loop variables back in
// their fusedState. Scores, counters and traces are the solo routine's.
// It reads q (the padded copy) and rt only inside their fusedPad slack,
// fills rt as the solo routine does, and never touches the buffers.
//
//go:noescape
func vectorExtendPairAVX512(a, b *fusedState)

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
