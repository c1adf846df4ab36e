package logan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
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

// TestConfigKeyIgnoresDeadPayload: the key is {X, scheme}, and a Scoring
// holds the one xdrop.Scheme its constructor builds, so no Scoring can
// carry a payload its mode does not read: each constructor gives exactly
// the xdrop constructor's value, every field but the live one zero. Two
// configs that select the same scheme therefore share a coalescer lane
// and cache entries, and the key is exactly the value the backend
// receives.
func TestConfigKeyIgnoresDeadPayload(t *testing.T) {
	mat := Blosum62(-6)
	keys := map[configKey]string{}
	for _, tc := range []struct {
		s    Scoring
		want xdrop.Scheme
	}{
		{DefaultConfig(40).Scoring, xdrop.LinearScheme(xdrop.DefaultScoring())},
		{AffineScoring(1, -1, -2, -1), xdrop.AffineScheme(xdrop.AffineScoring{Match: 1, Mismatch: -1, GapOpen: -2, GapExtend: -1})},
		{MatrixScoring(mat), xdrop.MatrixScheme(mat.m)},
	} {
		c := Config{X: 40, Scoring: tc.s}
		k := c.key()
		if k.sch != tc.want || k.sch != c.scheme() || k.x != 40 {
			t.Fatalf("%s: key %+v, want {40 %+v}", tc.s.Mode(), k, tc.want)
		}
		live := xdrop.Scheme{Kind: k.sch.Kind}
		switch k.sch.Kind {
		case xdrop.SchemeLinear:
			live.Linear = k.sch.Linear
		case xdrop.SchemeAffine:
			live.Affine = k.sch.Affine
		case xdrop.SchemeMatrix:
			live.Matrix = k.sch.Matrix
		}
		if k.sch != live {
			t.Fatalf("%s: dead payload in %+v", tc.s.Mode(), k.sch)
		}
		if other, dup := keys[k]; dup {
			t.Fatalf("%s and %s share a key", tc.s.Mode(), other)
		}
		keys[k] = tc.s.Mode()
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

// poolOracle aligns pairs on a one-worker xdrop.Pool, the single-lane
// oracle the engine's pooled batches are pinned to.
func poolOracle(t *testing.T, pairs []Pair, sch xdrop.Scheme, x int32) []xdrop.SeedResult {
	t.Helper()
	in := make([]seq.Pair, len(pairs))
	for i, p := range pairs {
		in[i] = seq.Pair{Query: p.Query, Target: p.Target, SeedQPos: p.SeedQ, SeedTPos: p.SeedT, SeedLen: p.SeedLen}
	}
	pool := xdrop.NewPool(1)
	defer pool.Close()
	out := make([]xdrop.SeedResult, len(in))
	if _, err := pool.ExtendBatchScheme(context.Background(), in, out, sch, x); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPooledAffineMatchesOracle pins the pooled affine batch path
// bit-identical to the single-lane oracle, and each pair's score to its
// two extensions plus the seed's.
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
	want := poolOracle(t, pairs, xdrop.AffineScheme(sc), x)
	var cells int64
	for i, p := range pairs {
		r := want[i]
		if got[i] != toAlignment(r) {
			t.Fatalf("pair %d: pooled %+v != oracle %+v", i, got[i], toAlignment(r))
		}
		if parts := r.Left.Score + r.Right.Score + int32(p.SeedLen)*sc.Match; got[i].Score != parts {
			t.Fatalf("pair %d: pooled score %d != extension composition %d", i, got[i].Score, parts)
		}
		cells += got[i].Cells
	}
	if st.Cells != cells {
		t.Fatalf("batch cells %d != summed %d", st.Cells, cells)
	}
}

// TestPooledMatrixMatchesOracle pins the pooled substitution-matrix batch
// path bit-identical to the single-lane oracle.
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
	want := poolOracle(t, pairs, xdrop.MatrixScheme(m.m), x)
	for i := range pairs {
		if got[i] != toAlignment(want[i]) {
			t.Fatalf("pair %d: pooled %+v != oracle %+v", i, got[i], toAlignment(want[i]))
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
	for _, bad := range []Pair{
		{Query: []byte("MKWV1TFIS"), Target: []byte("MKWVTFIS"), SeedLen: 4},
		{Query: []byte("MKV1"), Target: []byte("MKV"), SeedLen: 3},
		{Query: []byte("MKV"), Target: []byte("MO"), SeedLen: 2}, // O is outside the alphabet
	} {
		_, _, err := eng.Align(ctxb, []Pair{bad}, Config{X: 20, Scoring: MatrixScoring(Blosum62(-6))})
		if err == nil || !strings.Contains(err.Error(), "alphabet") {
			t.Fatalf("out-of-alphabet byte under matrix config %q/%q: err %v, want the alphabet check's", bad.Query, bad.Target, err)
		}
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

// TestSeedBounds pins the three seed checks built on seq.SeedInside —
// pair ingest, the pair format and xdrop's entry points — each with its
// own message, on one table of seeds against an 8-base query and target.
func TestSeedBounds(t *testing.T) {
	const acgt = "ACGTACGT"
	for _, tc := range []struct {
		name           string
		q, t, len      int
		logan, sq, xdr string // "" = inside
	}{
		{"inside", 2, 3, 4, "", "", ""},
		{"flush with both ends", 4, 4, 4, "", "", ""},
		{"one past the query", 5, 0, 4,
			"logan: pair 0: seed (5,0,len 4) outside sequences (8, 8)", "seq: line 1: seed (5,0,4) outside sequences (8,8)", "xdrop: seed (5,0,len 4) outside sequences (8, 8)"},
		{"empty seed", 0, 0, 0,
			"logan: pair 0: seed (0,0,len 0) outside sequences (8, 8)", "seq: line 1: seed (0,0,0) outside sequences (8,8)", "xdrop: seed (0,0,len 0) outside sequences (8, 8)"},
		{"negative length", 2, 2, -3,
			"logan: pair 0: seed (2,2,len -3) outside sequences (8, 8)", "seq: line 1: seed (2,2,-3) outside sequences (8,8)", "xdrop: seed (2,2,len -3) outside sequences (8, 8)"},
		{"negative query position", -1, 0, 4,
			"logan: pair 0: seed (-1,0,len 4) outside sequences (8, 8)", "seq: line 1: seed (-1,0,4) outside sequences (8,8)", "xdrop: seed (-1,0,len 4) outside sequences (8, 8)"},
		{"negative target position", 0, -1, 4,
			"logan: pair 0: seed (0,-1,len 4) outside sequences (8, 8)", "seq: line 1: seed (0,-1,4) outside sequences (8,8)", "xdrop: seed (0,-1,len 4) outside sequences (8, 8)"},
		{"query position near MaxInt", math.MaxInt - 1, 0, 4,
			fmt.Sprintf("logan: pair 0: seed (%d,0,len 4) outside sequences (8, 8)", math.MaxInt-1),
			fmt.Sprintf("seq: line 1: seed (%d,0,4) outside sequences (8,8)", math.MaxInt-1),
			fmt.Sprintf("xdrop: seed (%d,0,len 4) outside sequences (8, 8)", math.MaxInt-1)},
		{"length near MaxInt", 2, 2, math.MaxInt,
			fmt.Sprintf("logan: pair 0: seed (2,2,len %d) outside sequences (8, 8)", math.MaxInt),
			fmt.Sprintf("seq: line 1: seed (2,2,%d) outside sequences (8,8)", math.MaxInt),
			fmt.Sprintf("xdrop: seed (2,2,len %d) outside sequences (8, 8)", math.MaxInt)},
	} {
		errText := func(err error) string {
			if err == nil {
				return ""
			}
			return err.Error()
		}
		_, err := cfgT.ingestPair(&Pair{Query: []byte(acgt), Target: []byte(acgt), SeedQ: tc.q, SeedT: tc.t, SeedLen: tc.len}, 0)
		if got := errText(err); got != tc.logan {
			t.Errorf("%s: ingestPair: %q, want %q", tc.name, got, tc.logan)
		}
		_, err = seq.ReadPairs(strings.NewReader(fmt.Sprintf("%s\t%s\t%d\t%d\t%d\n", acgt, acgt, tc.q, tc.t, tc.len)))
		if got := errText(err); got != tc.sq {
			t.Errorf("%s: ReadPairs: %q, want %q", tc.name, got, tc.sq)
		}
		if got := errText(xdrop.CheckSeed(seq.Seq(acgt), seq.Seq(acgt), tc.q, tc.t, tc.len)); got != tc.xdr {
			t.Errorf("%s: CheckSeed: %q, want %q", tc.name, got, tc.xdr)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = xdrop.CheckSeed(seq.Seq(acgt), seq.Seq(acgt), 2, 3, 4) }); n != 0 {
		t.Errorf("a valid seed's check allocates %v times", n)
	}
}
