package xdrop

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"logan/internal/seq"
)

// rowISAs lists the vector-kernel variants this host can run: every fused
// routine up to the one detectISA picked, or isaNone alone where there is
// no fused routine.
func rowISAs() []rowISA {
	var isas []rowISA
	for isa := min(isaSSE2, detectISA()); isa <= detectISA(); isa++ {
		isas = append(isas, isa)
	}
	return isas
}

// eachISA calls f once per vector-kernel variant of this host, the
// dispatch pointed at it, and restores the dispatch afterwards.
func eachISA(f func()) {
	defer func(prev rowISA) { vectorISA = prev }(vectorISA)
	for _, isa := range rowISAs() {
		vectorISA = isa
		f()
	}
}

// forEachISA is eachISA with one named subtest per variant; it says so
// when the host cannot run the AVX2 or the AVX-512 routine.
func forEachISA(t *testing.T, f func(t *testing.T)) {
	eachISA(func() { t.Run(VectorISA(), f) })
	if detectISA() < isaAVX2 {
		t.Log("no AVX2 on this host: the 16-lane blocks were not exercised")
	}
	if detectISA() < isaAVX512 {
		t.Log("no AVX-512 on this host: the register mode was not exercised")
	}
}

// TestExtendVectorMatchesReference pins the vector kernel bit-identical to
// ExtendReference (and therefore to the scalar kernel) across
// lengths, X values and scoring schemes inside the vector envelope.
func TestExtendVectorMatchesReference(t *testing.T) {
	forEachISA(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		w := NewWorkspace()
		schemes := []Scoring{
			DefaultScoring(),
			{Match: 2, Mismatch: -3, Gap: -4},
			{Match: 5, Mismatch: -1, Gap: -2},
			{Match: 255, Mismatch: -255, Gap: -255},
		}
		xs := []int32{0, 1, 5, 25, 100, 1000, VectorMaxX}
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(300)
			m := 1 + rng.Intn(300)
			q := seq.RandSeq(rng, n)
			tt := seq.Mutate(rng, seq.RandSeq(rng, m), seq.UniformProfile(0.2))
			sc := schemes[trial%len(schemes)]
			x := xs[trial%len(xs)]
			want := ExtendReference(q, tt, sc, x)
			got := w.extend(q, tt, false, LinearScheme(sc), x, KernelVector, nil)
			if got != want {
				t.Fatalf("trial %d (lens %d/%d, sc %+v, x %d):\n got %+v\nwant %+v",
					trial, n, m, sc, x, got, want)
			}
		}
	})
}

// TestExtendVectorHandoffs keeps bands near the AVX-512 routine's
// register limits, where it moves the carried anti-diagonals between
// registers and memory: bands that outgrow a 64-lane frame and come back
// in a 128-lane one (regNarrow < width <= regReload), bands held around
// the 128-lane frame's edge that outgrow it and shrink back below
// regReload, and bands that drift off the main diagonal through indels
// until they leave their frame. Every extension must equal the reference
// on every ISA; on an AVX-512 host the handoffs must have happened many
// times over, in both frames, and bands over 128 cells must have run.
func TestExtendVectorHandoffs(t *testing.T) {
	// The trials and their references are built once, for every ISA.
	rng := rand.New(rand.NewSource(43))
	// A large match lets a cell live on its substitution source alone,
	// so every carried cell a handoff moves can decide a result.
	schemes := []Scoring{
		DefaultScoring(),
		{Match: 5, Mismatch: -1, Gap: -2},
		{Match: 9, Mismatch: -4, Gap: -3},
	}
	type trial struct {
		q, t seq.Seq
		sc   Scoring
		x    int32
		want Result
	}
	trials := make([]trial, 900)
	over128 := 0
	for i := range trials {
		q := seq.RandSeq(rng, 200+rng.Intn(400))
		tt := seq.Mutate(rng, q, seq.UniformProfile(0.05+0.15*rng.Float64()))
		sc := schemes[i%len(schemes)]
		// Alternately bands around the 64-lane frame (48..64 cells)
		// and around the 128-lane one (112..128).
		x := int32(35+rng.Intn(60)) * -sc.Gap
		if i/len(schemes)%2 == 1 {
			x = int32(140+rng.Intn(60)) * -sc.Gap
		}
		trials[i] = trial{q, tt, sc, x, ExtendReference(q, tt, sc, x)}
		if trials[i].want.MaxBand > 128 {
			over128++
		}
	}
	forEachISA(t, func(t *testing.T) {
		w := NewWorkspace()
		for i, tr := range trials {
			if got := w.extend(tr.q, tr.t, false, LinearScheme(tr.sc), tr.x, KernelVector, nil); got != tr.want {
				t.Fatalf("trial %d (lens %d/%d, sc %+v, x %d):\n got %+v\nwant %+v", i, len(tr.q), len(tr.t), tr.sc, tr.x, got, tr.want)
			}
		}
		if vectorISA != isaAVX512 {
			return
		}
		m := w.modes
		if m.toRegs < 600 || m.toMem < 300 || m.toWide < 300 || m.toRegs-m.toWide < 600 || over128 < 50 {
			t.Errorf("AVX-512 routine moved rows into registers %d times (%d into a 128-lane frame) and back %d times, over %d extensions with bands over 128 cells; want >= 600 (>= 300, and >= 600 into a 64-lane frame), >= 300 and >= 50",
				m.toRegs, m.toWide, m.toMem, over128)
		}
	})
}

// TestExtendVectorRebase drives the local best far past the int16 range so
// the score-offset rebase must fire (repeatedly), and checks exactness.
func TestExtendVectorRebase(t *testing.T) {
	forEachISA(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		w := NewWorkspace()
		// 2000 identical bases at match=255: final score 510000, ~31 rebases.
		q := seq.RandSeq(rng, 2000)
		tt := append(seq.Seq(nil), q...)
		sc := Scoring{Match: 255, Mismatch: -255, Gap: -255}
		want := ExtendReference(q, tt, sc, 500)
		got := w.extend(q, tt, false, LinearScheme(sc), 500, KernelVector, nil)
		if got != want {
			t.Fatalf("rebase run: got %+v want %+v", got, want)
		}
		if got.Score != 510000 {
			t.Fatalf("perfect-match score %d, want 510000", got.Score)
		}

		// A noisy long pair near the saturation boundary: match large enough
		// that scores cross vectorRebaseAt many times.
		tt = seq.Mutate(rng, q, seq.UniformProfile(0.1))
		sc = Scoring{Match: 200, Mismatch: -150, Gap: -180}
		for _, x := range []int32{500, VectorMaxX} {
			want := ExtendReference(q, tt, sc, x)
			got := w.extend(q, tt, false, LinearScheme(sc), x, KernelVector, nil)
			if got != want {
				t.Fatalf("noisy rebase run x=%d: got %+v want %+v", x, got, want)
			}
		}
	})
}

// TestExtendVectorFallback checks that inputs outside the vector envelope
// are executed (exactly) by the scalar fallback rather than rejected, and
// that where there is no fused routine (off amd64) the vector kernel is
// the scalar one: never selected, and the same result and band trace when
// forced.
func TestExtendVectorFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w := NewWorkspace()
	q := seq.RandSeq(rng, 400)
	tt := seq.Mutate(rng, q, seq.UniformProfile(0.15))
	for _, tc := range []struct {
		name string
		sc   Scoring
		x    int32
	}{
		{"x too wide", DefaultScoring(), VectorMaxX + 1},
		{"match too large", Scoring{Match: 300, Mismatch: -1, Gap: -1}, 100},
		{"gap too large", Scoring{Match: 1, Mismatch: -1, Gap: -300}, 100},
	} {
		if VectorEligible(tc.sc, tc.x) {
			t.Fatalf("%s: unexpectedly eligible", tc.name)
		}
		want := ExtendReference(q, tt, tc.sc, tc.x)
		got := w.extend(q, tt, false, LinearScheme(tc.sc), tc.x, KernelVector, nil)
		if got != want {
			t.Fatalf("%s: fallback got %+v want %+v", tc.name, got, want)
		}
	}

	if VectorISA() != "none" {
		return
	}
	sc, x := DefaultScoring(), int32(100)
	if k := SelectKernel(LinearScheme(sc), x); k != KernelScalar {
		t.Fatalf("no fused routine: SelectKernel picked %v on an eligible scheme", k)
	}
	var wantTrace []int32
	want := w.extend(q, tt, false, LinearScheme(sc), x, KernelScalar, &wantTrace)
	if got := w.extend(q, tt, false, LinearScheme(sc), x, KernelVector, nil); got != want {
		t.Fatalf("no fused routine: vector kernel %+v, want the scalar kernel's %+v", got, want)
	}
	got, trace := w.ExtendTrace(q, tt, false, sc, x, nil)
	if got != want || !slices.Equal(trace, wantTrace) {
		t.Fatalf("no fused routine: ExtendTrace %+v (trace %v), want %+v (trace %v)", got, trace, want, wantTrace)
	}
}

// TestRegisterModeCoverage pins where the AVX-512 routines compute the
// anti-diagonals of the served alignment shapes: seed extensions of
// align-bulk-shaped pairs (2.5-7.5 kb, 15 % error, x=100) and of
// align-small-shaped ones (100-400 bases, x=50) must run at least 95 % of
// them in registers, from the first anti-diagonal to the matrix edge; and
// a batch of overlap-job-shaped pairs (1.5-4.5 kb, 15 % error, x=25) on
// a one-worker Pool at least 90 % of them in the paired routine, with
// every result the scalar kernel's. On a host without AVX-512 there is no
// register mode, and the test says so.
func TestRegisterModeCoverage(t *testing.T) {
	if detectISA() != isaAVX512 {
		t.Skip("no AVX-512 on this host: there is no register mode")
	}
	defer func(prev rowISA) { vectorISA = prev }(vectorISA)
	vectorISA = isaAVX512
	for _, tc := range []struct {
		name           string
		n, minLen, max int
		x              int32
		pool           bool // through NewPool(1), its paired stream
	}{
		{"align-bulk", 64, 2500, 7500, 100, false},
		{"align-small", 256, 100, 400, 50, false},
		{"overlap-job", 64, 1500, 4500, 25, true},
	} {
		rng := rand.New(rand.NewSource(45))
		pairs := seq.RandPairSet(rng, seq.PairSetOptions{N: tc.n, MinLen: tc.minLen, MaxLen: tc.max, ErrorRate: 0.15, SeedLen: 17})
		w := NewWorkspace()
		got := make([]SeedResult, len(pairs))
		var modes regModes
		if tc.pool {
			p := NewPool(1)
			if _, err := p.ExtendBatchScheme(context.Background(), pairs, got, LinearScheme(DefaultScoring()), tc.x); err != nil {
				t.Fatal(err)
			}
			p.Close()
			modes = p.ws[0].modes
		}
		computed := 0 // anti-diagonals after the origin
		for i, p := range pairs {
			k := KernelVector
			if tc.pool {
				k = KernelScalar
			}
			r, err := w.extendSeed(p.Query, p.Target, p.SeedQPos, p.SeedTPos, p.SeedLen, LinearScheme(DefaultScoring()), tc.x, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.pool && got[i] != r {
				t.Fatalf("%s pair %d: pool %+v, scalar kernel %+v", tc.name, i, got[i], r)
			}
			computed += max(r.Left.AntiDiags-1, 0) + max(r.Right.AntiDiags-1, 0)
		}
		if !tc.pool {
			modes = w.modes
		}
		frac, paired := float64(modes.rows)/float64(computed), float64(modes.paired)/float64(computed)
		t.Logf("%s: %d of %d anti-diagonals in registers (%.1f %%), %d in the paired routine (%.1f %%), %d moves into registers, %d back to memory",
			tc.name, modes.rows, computed, 100*frac, modes.paired, 100*paired, modes.toRegs, modes.toMem)
		switch {
		case tc.pool && paired < 0.90:
			t.Errorf("%s: %.1f %% of the anti-diagonals ran in the paired routine, want >= 90 %%", tc.name, 100*paired)
		case !tc.pool && frac < 0.95:
			t.Errorf("%s: %.1f %% of the anti-diagonals ran in registers, want >= 95 %%", tc.name, 100*frac)
		}
	}
}

// pairCase is one extension for the paired driver: q and t, extended
// forward, or backward from their ends when rev is set (a seed's left
// extension), under sc and x.
type pairCase struct {
	q, t seq.Seq
	rev  bool
	sc   Scoring
	x    int32
}

// oriented returns the sequences the extension runs over: q and t, or
// both reversed.
func (c *pairCase) oriented() (seq.Seq, seq.Seq) {
	if !c.rev {
		return c.q, c.t
	}
	return seq.AppendReverse(nil, c.q), seq.AppendReverse(nil, c.t)
}

// pairDriver is pairRun (pair_amd64_test.go) where there is a paired
// routine, nil elsewhere.
var pairDriver func(w *Workspace, cs *[2]pairCase, traces *[2][]int32) [2]Result
