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
// outgrows the 64 lanes moves into a 128-lane frame.
const regNarrow = 48

// fusedBudget is how many cells the fused routine computes before it
// returns to Go, so that a long extension still reaches a preemption point
// every millisecond or so (assembly is never preempted asynchronously).
const fusedBudget = 1 << 20

// extendVector is wave for int16 cells with the whole loop in one
// assembly call, on the fused routine vectorISA names, in the workspace's
// first slot: scores, extents, tie order, work counters and trace are
// those of wave over linearRow, bit for bit (FuzzExtendVectorDifferential).
// The call returns early only to pause — once the band-local best reaches
// the rebase mark, or once fusedBudget cells have run — or, on AVX-512,
// for Go to move the carried rows into or out of a register frame, and
// resumes from fusedState. rev extends over q and t reversed.
func (w *Workspace) extendVector(q, t seq.Seq, rev bool, sc Scoring, x int16, trace *[]int32) Result {
	s := &w.fused[0]
	if !s.start(q, t, rev, sc, x, trace, vectorISA) {
		return Result{}
	}
	s.run(vectorISA)
	return s.finish(&w.modes)
}

// start stages one extension on s for the fused routine isa names, from
// anti-diagonal 1: q and the reversed target (stage; rev extends over q
// and t reversed), its diagonal buffers with anti-diagonal 0 in place, the
// trace, and the state at anti-diagonal 1, on AVX-512 with the carried
// rows in a 64-lane frame. It reports false for an empty extension, whose
// Result is the zero one.
func (s *fusedSlot) start(q, t seq.Seq, rev bool, sc Scoring, x int16, trace *[]int32, isa rowISA) bool {
	m, n := len(q), len(t)
	if m == 0 || n == 0 {
		return false
	}
	qs, rt := s.stage(q, t, rev)
	stride := bandLen(m, n)
	for i := range s.v {
		s.v[i] = grow(s.v[i], stride)
	}
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
		v: &s.v, q: &qs[0], rt: &rt[0], trace: tr,
	}
	s.base = 0
	s.modes = regModes{}
	if isa == isaAVX512 {
		s.frame() // d = 1: a band two cells wide
	}
	return true
}

// run runs the extension on s to its end on the solo routine isa names,
// rebasing between calls. On AVX-512 the routine starts in the frame the
// rows are in, if any, and returns whenever its band leaves that frame or,
// in memory, narrows to fit one: the rows then move (reframe).
func (s *fusedSlot) run(isa rowISA) {
	for !s.st.done {
		s.st.limit = s.st.cells + fusedBudget
		switch isa {
		case isaAVX512:
			vectorExtendAVX512(&s.st)
			s.reframe()
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
			rebase(s.st.frame[i][:s.st.lanes], best)
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
	if st.lanes != 0 { // it ended in a frame
		s.modes.rows += st.d
	}
	modes.rows += s.modes.rows
	modes.paired += s.modes.paired
	modes.toRegs += s.modes.toRegs
	modes.toMem += s.modes.toMem
	modes.toWide += s.modes.toWide
	// Anti-diagonals 0 .. st.d-1 ran; the trace holds the ones after 0.
	if s.trace != nil {
		*s.trace = (*s.trace)[:s.traced+st.d-1]
		s.trace = nil
	}
	// The caller's trace is not held past the extension.
	st.trace = nil
	return Result{
		Score: s.base + int32(st.best), QueryEnd: st.bestI, TargetEnd: st.bestJ,
		Cells: st.cells, AntiDiags: st.d, MaxBand: st.maxBand, SumBand: st.cells,
	}
}

// carried returns the buffers holding the previous anti-diagonal (a2) and
// the one before (a3), and the rows of the frame that hold them: a2 is
// frame[0] for odd d. The cells the next anti-diagonal reads are [A, B]
// of a2 and [A, B-1] of a3: they lie within what the anti-diagonal
// before it read and wrote.
func (s *fusedSlot) carried() (a2, a3 []int16, f2, f3 *[128]int16, A, B int) {
	st := &s.st
	a2, a3 = s.v[(st.phase+1)%3], s.v[(st.phase+2)%3]
	f2, f3 = &st.frame[0], &st.frame[1]
	if st.d%2 == 0 {
		f2, f3 = f3, f2
	}
	return a2, a3, f2, f3, max(st.lo-1, 0), min(st.hi, st.d-1)
}

// frame moves the carried anti-diagonals from the buffers into a frame
// that centers the band: 64 lanes for a band of at most regNarrow cells,
// 128 for one of at most regReload; a wider band stays in memory. Lane l
// of the previous anti-diagonal holds cell F_d - e + l (e = 1 for even d)
// and of the one before cell F_d - 1 + l, so that the frame follows the
// main diagonal; every lane holding no carried cell holds the sentinel.
func (s *fusedSlot) frame() {
	st := &s.st
	width := st.hi - st.lo + 1
	switch {
	case width > regReload:
		return
	case width > regNarrow:
		st.lanes = 128
		s.modes.toWide++
	default:
		st.lanes = 64
	}
	st.f = st.lo - (st.lanes-width)/2
	e := 1 - st.d%2
	a2, a3, f2, f3, A, B := s.carried()
	for l := range st.lanes {
		f2[l], f3[l] = negInf16, negInf16
	}
	for c := A; c <= B; c++ {
		f2[c-st.f+e] = a2[c-st.org2]
	}
	for c := A; c < B; c++ {
		f3[c-st.f+1] = a3[c-st.org3]
	}
	s.modes.toRegs++
	s.modes.rows -= st.d // the rows from d on run in registers
}

// spill moves the carried anti-diagonals from the frame back to the
// buffers, in the memory layout with cell A at slot 0 of each: a cell
// outside the frame is dead (every live cell entered the frame with its
// band).
func (s *fusedSlot) spill() {
	st := &s.st
	if st.lanes == 0 {
		return
	}
	e := 1 - st.d%2
	a2, a3, f2, f3, A, B := s.carried()
	lane := func(f *[128]int16, l int) int16 {
		if l < 0 || l >= st.lanes {
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
	s.modes.toMem++
	s.modes.rows += st.d
}

// reframe settles the rows of an extension a routine returned from: one
// that has not ended and whose band no longer fits the frame its rows are
// in, or whose rows are in memory, has them moved (spill) into a frame
// that centers the band, if one fits (frame).
func (s *fusedSlot) reframe() {
	st := &s.st
	if st.done || st.lanes != 0 && st.lo >= st.f && st.hi < st.f+st.lanes {
		return
	}
	s.spill()
	s.frame()
}

// stepPair advances the extensions in w's two slots, both in 64-lane
// frames, in the paired routine until one of them ends, pauses or leaves
// its frame, and then settles each that has not ended: it is reframed
// and rebased, and unless it is still in a 64-lane frame it runs to its
// end on the solo routine. Afterwards each slot is done or in a 64-lane
// frame.
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
		s.modes.paired += s.st.d - d0[i]
		s.reframe()
		s.rebase()
		if !s.st.done && s.st.lanes != 64 {
			s.run(isaAVX512)
		}
	}
}

// vectorExtendSSE2, vectorExtendAVX2 and vectorExtendAVX512
// (extend_vector_amd64.s) are the fused routine: every anti-diagonal of
// the extension from st.d on, in one call, until the band empties, the
// matrix ends, or a pause condition (see extendVector) holds at the top
// of an anti-diagonal; st holds every pointer they read through. The
// first two differ only in the interior blocks of rows 16 cells or wider,
// 16-lane AVX2 against 8-lane SSE2. All three read only the slot's staged
// q and rt (see fusedSlot.stage), and those only inside their fusedPad
// slack (the AVX-512 routine's windows read the slack; the others only
// the bases the extension compares), and touch the diagonal buffers only
// in their first bandLen(m, n) slots (TestExtendVectorGuardPages).
//
//go:noescape
func vectorExtendSSE2(st *fusedState)

//go:noescape
func vectorExtendAVX2(st *fusedState)

// vectorExtendAVX512 is vectorExtendAVX2 with a register mode: started
// with the two carried anti-diagonals in a 64- or 128-lane frame
// (st.lanes), it keeps them in ZMM registers and computes each new one
// from them with no store or reload, and returns with them in st.frame
// once the band leaves the frame or it pauses or ends (see
// extend_vector_amd64.s); started in memory, it returns once the next
// band is at most regReload cells wide.
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
// It reads the staged q and rt of each only inside their fusedPad slack,
// and never touches the diagonal buffers.
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
