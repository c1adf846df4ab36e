package logan

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"logan/internal/seq"
	"logan/internal/xdrop"
)

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"default", DefaultConfig(100), true},
		{"linear", Config{X: 10, Scoring: LinearScoring(2, -3, -2)}, true},
		{"affine", Config{X: 10, Scoring: AffineScoring(1, -1, -2, -1)}, true},
		{"blosum62", Config{X: 10, Scoring: MatrixScoring(Blosum62(-6))}, true},
		{"zero value", Config{}, false},
		{"unset scoring", Config{X: 10}, false},
		{"explicit zero linear", Config{X: 10, Scoring: LinearScoring(0, 0, 0)}, false},
		{"non-negative mismatch", Config{X: 10, Scoring: LinearScoring(1, 0, -1)}, false},
		{"affine positive open", Config{X: 10, Scoring: AffineScoring(1, -1, 2, -1)}, false},
		{"affine zero extend", Config{X: 10, Scoring: AffineScoring(1, -1, -2, 0)}, false},
		{"nil matrix", Config{X: 10, Scoring: MatrixScoring(nil)}, false},
		{"negative X", Config{X: -5, Scoring: LinearScoring(1, -1, -1)}, false},
	} {
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestScoringMode(t *testing.T) {
	if m := (Scoring{}).Mode(); m != "" {
		t.Errorf("zero Scoring mode %q", m)
	}
	if m := LinearScoring(1, -1, -1).Mode(); m != "linear" {
		t.Errorf("linear mode %q", m)
	}
	if m := AffineScoring(1, -1, -2, -1).Mode(); m != "affine" {
		t.Errorf("affine mode %q", m)
	}
	if m := MatrixScoring(Blosum62(-6)).Mode(); m != "matrix" {
		t.Errorf("matrix mode %q", m)
	}
}

// TestBlosum62Interned: repeated Blosum62 calls with the same gap must
// return the identical *Matrix, so independent callers' configs compare
// equal and coalesce together; distinct gaps must not.
func TestBlosum62Interned(t *testing.T) {
	a, b := Blosum62(-6), Blosum62(-6)
	if a != b {
		t.Fatal("Blosum62(-6) returned two identities")
	}
	if a.Name() != "BLOSUM62" || a.Gap() != -6 {
		t.Fatalf("matrix %q gap %d", a.Name(), a.Gap())
	}
	if Blosum62(-4) == a {
		t.Fatal("different gap penalties shared one matrix")
	}
	k1 := Config{X: 40, Scoring: MatrixScoring(a)}.key()
	k2 := Config{X: 40, Scoring: MatrixScoring(b)}.key()
	if k1 != k2 {
		t.Fatal("same-matrix configs have different keys")
	}
	k3 := Config{X: 41, Scoring: MatrixScoring(a)}.key()
	if k1 == k3 {
		t.Fatal("different X collapsed into one key")
	}
}

// TestConfigKeyIgnoresDeadPayload: the key is {X, lowered scheme}, and the
// lowering populates only the live payload — two configs that select the
// same scheme share a coalescer lane and cache entries whatever is left in
// the fields their mode does not read, and the key is exactly the value
// the backend receives.
func TestConfigKeyIgnoresDeadPayload(t *testing.T) {
	clean := Config{X: 40, Scoring: AffineScoring(1, -1, -2, -1)}
	dirty := clean
	dirty.Scoring.linear = xdrop.Scoring{Match: 7, Mismatch: -7, Gap: -7}
	dirty.Scoring.matrix = Blosum62(-6)
	if clean.key() != dirty.key() {
		t.Fatalf("dead payload leaked into the key: %+v != %+v", clean.key(), dirty.key())
	}
	want := xdrop.AffineScheme(xdrop.AffineScoring{Match: 1, Mismatch: -1, GapOpen: -2, GapExtend: -1})
	if k := dirty.key(); k.sch != want || k.sch != dirty.scheme() || k.x != 40 {
		t.Fatalf("key %+v, want {40 %+v}", k, want)
	}
	if lin := DefaultConfig(40); lin.key() == clean.key() || lin.scheme() != xdrop.LinearScheme(xdrop.DefaultScoring()) {
		t.Fatalf("linear config lowered to %+v", lin.scheme())
	}
}

// makeProteinPairs builds seeded protein pairs over the BLOSUM62
// alphabet: diverged copies sharing a conserved (planted) seed region.
func makeProteinPairs(n int, seed int64) []Pair {
	const residues = "ARNDCQEGHILKMFPSTWYV"
	rng := rand.New(rand.NewSource(seed))
	out := make([]Pair, n)
	for i := range out {
		ln := 120 + rng.Intn(200)
		q := make([]byte, ln)
		for j := range q {
			q[j] = residues[rng.Intn(len(residues))]
		}
		tgt := append([]byte(nil), q...)
		for j := range tgt {
			if rng.Float64() < 0.25 {
				tgt[j] = residues[rng.Intn(len(residues))]
			}
		}
		seedLen := 10
		pos := ln / 2
		copy(tgt[pos:pos+seedLen], q[pos:pos+seedLen])
		out[i] = Pair{Query: q, Target: tgt, SeedQ: pos, SeedT: pos, SeedLen: seedLen}
	}
	return out
}

// TestPooledAffineMatchesOracle pins the pooled affine batch path
// bit-identical to the single-pair oracles: xdrop.ExtendSeedAffine and
// its composition from raw ExtendAffine extensions.
func TestPooledAffineMatchesOracle(t *testing.T) {
	pairs := makePairs(24)
	sc := xdrop.AffineScoring{Match: 1, Mismatch: -1, GapOpen: -3, GapExtend: -1}
	const x = 60
	eng, err := NewAligner(EngineOptions{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cfg := Config{X: x, Scoring: AffineScoring(sc.Match, sc.Mismatch, sc.GapOpen, sc.GapExtend)}
	got, st, err := eng.Align(ctxb, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cells int64
	for i, p := range pairs {
		r, err := xdrop.ExtendSeedAffine(p.Query, p.Target, p.SeedQ, p.SeedT, p.SeedLen, sc, x)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != toAlignment(r) {
			t.Fatalf("pair %d: pooled %+v != ExtendSeedAffine %+v", i, got[i], toAlignment(r))
		}
		// Cross-check the seed-and-extend composition against the raw
		// extension oracle.
		left, err := xdrop.ExtendAffine(
			append([]byte(nil), reverse(p.Query[:p.SeedQ])...),
			reverse(p.Target[:p.SeedT]), sc, x)
		if err != nil {
			t.Fatal(err)
		}
		right, err := xdrop.ExtendAffine(p.Query[p.SeedQ+p.SeedLen:], p.Target[p.SeedT+p.SeedLen:], sc, x)
		if err != nil {
			t.Fatal(err)
		}
		if want := left.Score + right.Score + int32(p.SeedLen)*sc.Match; got[i].Score != want {
			t.Fatalf("pair %d: pooled score %d != ExtendAffine composition %d", i, got[i].Score, want)
		}
		cells += got[i].Cells
	}
	if st.Cells != cells {
		t.Fatalf("batch cells %d != summed %d", st.Cells, cells)
	}
}

func reverse(s []byte) []byte {
	out := make([]byte, len(s))
	for i, c := range s {
		out[len(s)-1-i] = c
	}
	return out
}

// TestPooledMatrixMatchesOracle pins the pooled substitution-matrix batch
// path bit-identical to the single-pair xdrop.ExtendSeedMatrix oracle.
func TestPooledMatrixMatchesOracle(t *testing.T) {
	pairs := makeProteinPairs(24, 77)
	m := Blosum62(-6)
	const x = 40
	eng, err := NewAligner(EngineOptions{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	got, _, err := eng.Align(ctxb, pairs, Config{X: x, Scoring: MatrixScoring(m)})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		r, err := xdrop.ExtendSeedMatrix(p.Query, p.Target, p.SeedQ, p.SeedT, p.SeedLen, m.m, x)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != toAlignment(r) {
			t.Fatalf("pair %d: pooled %+v != ExtendSeedMatrix %+v", i, got[i], toAlignment(r))
		}
	}
}

// TestHybridNonLinearMatchesCPU: affine and matrix configs on a Hybrid
// engine route to the CPU shards and must stay bit-identical to a
// dedicated CPU engine.
func TestHybridNonLinearMatchesCPU(t *testing.T) {
	cpu, err := NewAligner(EngineOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cpu.Close()
	hyb, err := NewAligner(EngineOptions{Backend: Hybrid, GPUs: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer hyb.Close()

	dna := makePairs(20)
	prot := makeProteinPairs(20, 5)
	for _, tc := range []struct {
		name  string
		pairs []Pair
		cfg   Config
	}{
		{"affine", dna, Config{X: 50, Scoring: AffineScoring(1, -1, -2, -1)}},
		{"matrix", prot, Config{X: 40, Scoring: MatrixScoring(Blosum62(-6))}},
	} {
		want, wantStats, err := cpu.Align(ctxb, tc.pairs, tc.cfg)
		if err != nil {
			t.Fatalf("%s cpu: %v", tc.name, err)
		}
		got, gotStats, err := hyb.Align(ctxb, tc.pairs, tc.cfg)
		if err != nil {
			t.Fatalf("%s hybrid: %v", tc.name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s pair %d: hybrid %+v != cpu %+v", tc.name, i, got[i], want[i])
			}
		}
		if gotStats.Cells != wantStats.Cells {
			t.Fatalf("%s: cells %d != %d", tc.name, gotStats.Cells, wantStats.Cells)
		}
		for _, sh := range gotStats.PerBackend {
			if sh.Name != "cpu" {
				t.Fatalf("%s: non-linear shard on %q", tc.name, sh.Name)
			}
		}
	}
}

// TestGPURejectsNonLinear pins the documented backend restriction: affine
// and matrix configs on a pure-GPU engine fail with ErrUnsupportedConfig.
func TestGPURejectsNonLinear(t *testing.T) {
	for _, gpus := range []int{1, 2} {
		eng, err := NewAligner(EngineOptions{Backend: GPU, GPUs: gpus})
		if err != nil {
			t.Fatal(err)
		}
		pairs := makePairs(4)
		for _, cfg := range []Config{
			{X: 30, Scoring: AffineScoring(1, -1, -2, -1)},
			{X: 30, Scoring: MatrixScoring(Blosum62(-6))},
		} {
			if _, _, err := eng.Align(ctxb, pairs, cfg); !errors.Is(err, ErrUnsupportedConfig) {
				t.Errorf("gpus=%d mode %s: err %v, want ErrUnsupportedConfig",
					gpus, cfg.Scoring.Mode(), err)
			}
		}
		// The same engine still serves linear traffic.
		if _, _, err := eng.Align(ctxb, pairs, DefaultConfig(30)); err != nil {
			t.Errorf("gpus=%d: linear after rejection: %v", gpus, err)
		}
		eng.Close()
	}
}

// TestMatrixAlphabetValidation: matrix configs validate sequences against
// the matrix alphabet, not the DNA alphabet — protein residues that the
// DNA path rejects are accepted, and out-of-alphabet bytes are not.
func TestMatrixAlphabetValidation(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	prot := []Pair{{Query: []byte("MKWVTFISLLFLFSSAYS"), Target: []byte("MKWVTFISLLFLFSSAYS"), SeedQ: 4, SeedT: 4, SeedLen: 6}}
	if _, _, err := eng.Align(ctxb, prot, Config{X: 20, Scoring: MatrixScoring(Blosum62(-6))}); err != nil {
		t.Fatalf("protein under matrix config rejected: %v", err)
	}
	if _, _, err := eng.Align(ctxb, prot, DefaultConfig(20)); err == nil {
		t.Fatal("protein residues accepted by the DNA path")
	}
	bad := []Pair{{Query: []byte("MKWV1TFIS"), Target: []byte("MKWVTFIS"), SeedLen: 4}}
	if _, _, err := eng.Align(ctxb, bad, Config{X: 20, Scoring: MatrixScoring(Blosum62(-6))}); err == nil {
		t.Fatal("out-of-alphabet byte accepted under matrix config")
	}
}

// TestAlignContextCanceledMidBatch: cancelling the context of a running
// Align must return promptly (the CPU pool stops claiming pairs) instead
// of draining the whole batch. Self-calibrating: the cancelled run is
// compared against a measured uncancelled run of the same batch. The
// batch is sized so the vector-kernel run still takes long enough that
// the cancel goroutine gets scheduled mid-batch on a GOMAXPROCS=1
// machine (timer wakeups there wait on preemption of the busy worker,
// tens of milliseconds).
func TestAlignContextCanceledMidBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	raw := seq.RandPairSet(rng, seq.PairSetOptions{
		N: 400, MinLen: 1200, MaxLen: 2000, ErrorRate: 0.15, SeedLen: 17,
	})
	rngPairs := make([]Pair, len(raw))
	for i, p := range raw {
		rngPairs[i] = Pair{Query: []byte(p.Query), Target: []byte(p.Target),
			SeedQ: p.SeedQPos, SeedT: p.SeedTPos, SeedLen: p.SeedLen}
	}
	eng, err := NewAligner(EngineOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cfg := DefaultConfig(300)

	full := time.Now()
	if _, _, err := eng.Align(ctxb, rngPairs, cfg); err != nil {
		t.Fatal(err)
	}
	fullDur := time.Since(full)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(fullDur / 20)
		cancel()
	}()
	start := time.Now()
	_, _, err = eng.Align(ctx, rngPairs, cfg)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	// Prompt means well short of the full batch: half is a generous bound
	// (the cancel fires at 5% and only in-flight pairs may finish).
	if elapsed > fullDur/2+50*time.Millisecond {
		t.Fatalf("cancelled Align took %v of an uncancelled %v", elapsed, fullDur)
	}
	// An already-canceled context fails before any work.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, _, err := eng.Align(pre, rngPairs, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled err %v", err)
	}
}

func TestScoringMaxAbsParam(t *testing.T) {
	if got := LinearScoring(2, -3, -5).MaxAbsParam(); got != 5 {
		t.Fatalf("linear MaxAbsParam %d, want 5", got)
	}
	if got := AffineScoring(1, -4, -2, -1).MaxAbsParam(); got != 4 {
		t.Fatalf("affine MaxAbsParam %d, want 4 (mismatch dominates)", got)
	}
	// A gap costs open+extend on its first base: that sum is the per-base
	// worst case when it exceeds the substitution parameters.
	if got := AffineScoring(1, -1, -7, -2).MaxAbsParam(); got != 9 {
		t.Fatalf("affine MaxAbsParam %d, want 9 (open+extend)", got)
	}
	if got := MatrixScoring(Blosum62(-6)).MaxAbsParam(); got != 11 {
		t.Fatalf("matrix MaxAbsParam %d, want 11 (BLOSUM62's extreme entry)", got)
	}
	if got := MatrixScoring(Blosum62(-200)).MaxAbsParam(); got != 200 {
		t.Fatalf("matrix MaxAbsParam %d, want 200 (gap dominates)", got)
	}
	if got := (Scoring{}).MaxAbsParam(); got != 0 {
		t.Fatalf("zero Scoring MaxAbsParam %d, want 0", got)
	}
}

func TestMatrixZeroValueAccessors(t *testing.T) {
	var m Matrix
	if m.Name() != "" || m.Alphabet() != "" || m.Gap() != 0 {
		t.Fatalf("zero Matrix accessors: %q %q %d", m.Name(), m.Alphabet(), m.Gap())
	}
	var p *Matrix
	if p.Name() != "" || p.Alphabet() != "" || p.Gap() != 0 {
		t.Fatal("nil *Matrix accessors panicked or returned non-zero")
	}
	if err := (Config{X: 1, Scoring: MatrixScoring(&m)}).Validate(); err == nil {
		t.Fatal("zero Matrix accepted by Validate")
	}
}

// TestAlignRejectsOverflowBudget: the engine itself (not just the HTTP
// front end) must refuse a pair whose score could wrap int32 under the
// request's parameters.
func TestAlignRejectsOverflowBudget(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	long := make([]byte, 4096)
	for i := range long {
		long[i] = "ACGT"[i%4]
	}
	pairs := []Pair{{Query: long, Target: long, SeedLen: 8}}
	cfg := Config{X: 10, Scoring: LinearScoring(1<<20, -1, -1)}
	if _, _, err := eng.Align(ctxb, pairs, cfg); err == nil {
		t.Fatal("engine accepted a pair whose score can overflow int32")
	}
	// Sane parameters on the same pair are fine.
	if _, _, err := eng.Align(ctxb, pairs, DefaultConfig(10)); err != nil {
		t.Fatal(err)
	}
}
