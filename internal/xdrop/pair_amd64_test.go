package xdrop

import (
	"math/rand"
	"slices"
	"testing"

	"logan/internal/seq"
)

// pairRun runs two extensions through the paired driver in w's two
// slots, as a Pool worker's stream does: both framed from anti-diagonal
// 1, stepPair until one of them ends, then the other on the solo
// routine. Unless traces is nil, each extension's band trace is appended
// to its entry.
func pairRun(w *Workspace, cs *[2]pairCase, traces *[2][]int32) (rs [2]Result) {
	var busy [2]bool
	for i := range cs {
		c := &cs[i]
		var trace *[]int32
		if traces != nil {
			trace = &traces[i]
		}
		busy[i] = w.fused[i].startPaired(c.q, c.t, c.rev, c.sc, int16(c.x), trace)
	}
	for busy[0] && busy[1] {
		w.stepPair()
		for i := range busy {
			if s := &w.fused[i]; busy[i] && s.st.done {
				rs[i], busy[i] = s.finish(&w.modes), false
			}
		}
	}
	for i := range busy {
		if s := &w.fused[i]; busy[i] {
			s.run(isaAVX512)
			rs[i] = s.finish(&w.modes)
		}
	}
	return rs
}

// FuzzExtendPairDifferential pins the paired routine and its driver
// bit-identical to the solo routine and to ExtendReference: two
// independent extensions, each with its own sequences, direction, x and
// scoring (the envelope's edges included, so that {255, -255, -255}
// pauses at the rebase mark), run through the paired driver must each
// give the Result and the band trace of the same extension run alone, and
// the paired routine must have computed their rows in registers. The
// seeds hold sides that end at different rows, a side whose band outgrows
// the 64-lane frame mid-pair (it finishes alone, in a 128-lane frame or
// in memory), sides that pause at the rebase mark, and bands that drift
// out of their frame and are framed again.
func FuzzExtendPairDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(46))
	similar := func(n int, rate float64) ([]byte, []byte) {
		q := seq.RandSeq(rng, n)
		return q, seq.Mutate(rng, q, seq.UniformProfile(rate))
	}
	// Different ends: a long side and a short one.
	qa, ta := similar(300, 0.1)
	qb, tb := similar(60, 0.1)
	f.Add([]byte(qa), []byte(ta), []byte(qb), []byte(tb), int32(25), int32(25), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1))
	// One side's band outgrows 64 lanes mid-pair (x=150 on a divergent
	// pair), the other stays narrow.
	qa, ta = similar(300, 0.2)
	qb, tb = similar(280, 0.15)
	f.Add([]byte(qa), []byte(ta), []byte(qb), []byte(tb), int32(150), int32(20), uint8(0), uint8(0), uint8(0), uint8(1), uint8(2), uint8(3), uint8(2))
	// One side pauses at the rebase mark ({255, -255, -255} on identical
	// sequences), the other under the default scoring.
	qa = seq.RandSeq(rng, 250)
	qb, tb = similar(250, 0.15)
	f.Add([]byte(qa), []byte(qa), []byte(qb), []byte(tb), int32(500), int32(30), uint8(254), uint8(254), uint8(254), uint8(0), uint8(0), uint8(0), uint8(3))
	// Indels drift both bands off the main diagonal until they leave the
	// frame.
	qa = seq.RandSeq(rng, 200)
	ta = seq.Mutate(rng, qa, seq.ErrorProfile{Ins: 0.3})
	qb = seq.RandSeq(rng, 220)
	tb = seq.Mutate(rng, qb, seq.ErrorProfile{Ins: 0.25})
	f.Add([]byte(qa), []byte(ta), []byte(qb), []byte(tb), int32(40), int32(45), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte("A"), []byte("A"), []byte(""), []byte("ACGT"), int32(0), int32(7), uint8(1), uint8(2), uint8(3), uint8(4), uint8(5), uint8(6), uint8(1))
	if detectISA() != isaAVX512 {
		f.Skip("no AVX-512 on this host: there is no paired routine")
	}
	ws, solo := NewWorkspace(), NewWorkspace()
	f.Fuzz(func(t *testing.T, qa, ta, qb, tb []byte, xa, xb int32, ma, mma, ga, mb, mmb, gb, rev uint8) {
		if len(qa) > 300 || len(ta) > 300 || len(qb) > 300 || len(tb) > 300 {
			return
		}
		defer func(prev rowISA) { vectorISA = prev }(vectorISA)
		vectorISA = isaAVX512
		x := func(x int32) int32 {
			if x < 0 {
				x = -x
			}
			return x % (VectorMaxX + 1)
		}
		cs := [2]pairCase{
			{sanitizeDNA(qa), sanitizeDNA(ta), rev&1 != 0, fuzzScoring(ma, mma, ga), x(xa)},
			{sanitizeDNA(qb), sanitizeDNA(tb), rev&2 != 0, fuzzScoring(mb, mmb, gb), x(xb)},
		}
		ws.modes = regModes{}
		var traces [2][]int32
		got := pairRun(ws, &cs, &traces)
		rows := 0 // anti-diagonals after the origin
		for i := range cs {
			c := &cs[i]
			q, tt := c.oriented()
			want := ExtendReference(q, tt, c.sc, c.x)
			r, trace := solo.ExtendTrace(q, tt, c.sc, c.x, nil)
			if r != want {
				t.Fatalf("side %d: solo %+v != reference %+v (sc %+v x %d)", i, r, want, c.sc, c.x)
			}
			if got[i] != want {
				t.Fatalf("side %d: paired %+v != reference %+v (sc %+v x %d)", i, got[i], want, c.sc, c.x)
			}
			if !slices.Equal(traces[i], trace) {
				t.Fatalf("side %d: paired trace %v != solo trace %v (sc %+v x %d)", i, traces[i], trace, c.sc, c.x)
			}
			rows += max(want.AntiDiags-1, 0)
		}
		m := ws.modes
		if m.paired > m.rows || m.rows > rows {
			t.Fatalf("modes %+v: paired rows beyond register rows, or register rows beyond the %d computed", m, rows)
		}
		if got[0].AntiDiags > 0 && got[1].AntiDiags > 0 && m.paired == 0 {
			t.Fatalf("modes %+v: two live extensions and no anti-diagonal in the paired routine", m)
		}
	})
}

func init() { pairDriver = pairRun }

// TestExtendPairBudget runs two extensions longer than the paired
// routine's budget (fusedBudget/64 anti-diagonals per call) through the
// paired driver, so that it returns for the budget and resumes, and
// checks both against ExtendReference.
func TestExtendPairBudget(t *testing.T) {
	if detectISA() != isaAVX512 {
		t.Skip("no AVX-512 on this host: there is no paired routine")
	}
	rng := rand.New(rand.NewSource(47))
	var cs [2]pairCase
	for i := range cs {
		q := seq.RandSeq(rng, 40000)
		cs[i] = pairCase{q, seq.Mutate(rng, q, seq.UniformProfile(0.1)), i == 1, DefaultScoring(), 25}
	}
	w := NewWorkspace()
	got := pairRun(w, &cs, nil)
	for i := range cs {
		q, tt := cs[i].oriented()
		want := ExtendReference(q, tt, cs[i].sc, cs[i].x)
		if got[i] != want || want.AntiDiags <= 2*fusedBudget/64 {
			t.Fatalf("side %d: paired %+v, reference %+v (want more than %d anti-diagonals)", i, got[i], want, 2*fusedBudget/64)
		}
	}
	if w.modes.paired == 0 {
		t.Fatal("no anti-diagonal in the paired routine")
	}
}
