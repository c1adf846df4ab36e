package bella

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"logan/internal/backend"
	"logan/internal/genome"
	"logan/internal/seq"
)

func smallReadSet(t *testing.T, seed int64, genomeLen int, cov float64, errRate float64) genome.ReadSet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := genome.Synthetic(rng, "test", genome.SyntheticOptions{Length: genomeLen})
	return genome.Simulate(rng, g, genome.SimOptions{
		Coverage: cov, MinLen: 800, MaxLen: 1600, ErrorRate: errRate,
	})
}

func TestCountKmersMatchesNaive(t *testing.T) {
	rs := smallReadSet(t, 1, 20000, 2, 0.05)
	k := 15
	idx := CountKmers(rs.Reads, k, 4)
	// Naive recount.
	codec := seq.MustKmerCodec(k)
	naive := map[seq.Kmer]int32{}
	for _, r := range rs.Reads {
		for _, p := range codec.Scan(nil, r.Seq, true) {
			naive[p.Kmer]++
		}
	}
	if len(idx.Kmers) != len(naive) {
		t.Fatalf("distinct k-mers %d != naive %d", len(idx.Kmers), len(naive))
	}
	for i, km := range idx.Kmers {
		if idx.Counts[i] != naive[km] {
			t.Fatalf("k-mer %v count %d != naive %d", km, idx.Counts[i], naive[km])
		}
	}
}

func TestReliableBounds(t *testing.T) {
	lo, hi := ReliableBounds(10, 0.15, 17, 1e-3)
	if lo != 2 {
		t.Fatalf("lo = %d, want 2", lo)
	}
	if hi <= lo {
		t.Fatalf("hi = %d not above lo", hi)
	}
	// Lower error or higher coverage raises the repeat cutoff.
	_, hi2 := ReliableBounds(10, 0.05, 17, 1e-3)
	if hi2 <= hi {
		t.Fatalf("cleaner reads should raise the upper bound: %d vs %d", hi2, hi)
	}
	_, hi3 := ReliableBounds(30, 0.15, 17, 1e-3)
	if hi3 <= hi {
		t.Fatalf("higher coverage should raise the upper bound: %d vs %d", hi3, hi)
	}
}

func TestBinomTail(t *testing.T) {
	// P(X >= 0) = 1, P(X >= n+1) = 0-ish, monotone decreasing in m.
	if got := binomTail(10, 0.3, 0); got != 1 {
		t.Fatalf("tail at 0 = %v", got)
	}
	prev := 1.0
	for m := 1; m <= 10; m++ {
		cur := binomTail(10, 0.3, m)
		if cur > prev+1e-12 {
			t.Fatalf("tail not monotone at m=%d: %v > %v", m, cur, prev)
		}
		prev = cur
	}
	// Sanity: P(X>=1) = 1-(0.7)^10.
	want := 1 - math.Pow(0.7, 10)
	if got := binomTail(10, 0.3, 1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("P(X>=1) = %v, want %v", got, want)
	}
}

func TestReliableFilter(t *testing.T) {
	idx := KmerIndex{K: 5, Kmers: []seq.Kmer{1, 2, 3, 4, 5}, Counts: []int32{1, 2, 5, 9, 3}}
	rel := idx.Reliable(2, 5)
	if len(rel) != 3 {
		t.Fatalf("reliable = %v", rel)
	}
	for i := 1; i < len(rel); i++ {
		if rel[i] <= rel[i-1] {
			t.Fatal("reliable list not sorted")
		}
	}
}

func TestBuildMatrixAndSpGEMM(t *testing.T) {
	rs := smallReadSet(t, 2, 30000, 4, 0.08)
	idx := CountKmers(rs.Reads, 17, 0)
	lo, hi := ReliableBounds(4, 0.08, 17, 1e-3)
	rel := idx.Reliable(lo, hi)
	if len(rel) == 0 {
		t.Fatal("no reliable k-mers")
	}
	mat := BuildMatrix(rs.Reads, 17, rel)
	if mat.NNZ == 0 {
		t.Fatal("empty matrix")
	}
	// Column occurrence lists must be sorted and within range, and no
	// read may appear twice in one column.
	for c := range mat.Kmers {
		col := mat.Col(c)
		seen := map[int32]bool{}
		for i, occ := range col {
			if occ.Read < 0 || int(occ.Read) >= len(rs.Reads) {
				t.Fatalf("col %d: read %d out of range", c, occ.Read)
			}
			if seen[occ.Read] {
				t.Fatalf("col %d: read %d duplicated", c, occ.Read)
			}
			seen[occ.Read] = true
			if i > 0 && col[i-1].Read > occ.Read {
				t.Fatalf("col %d not sorted", c)
			}
		}
	}
	cands := mat.SpGEMM(SpGEMMOptions{MaxSeedsPerPair: 16, MinShared: 1})
	if len(cands) == 0 {
		t.Fatal("no overlap candidates")
	}
	for _, c := range cands {
		if c.I >= c.J {
			t.Fatalf("candidate not upper-triangular: %d,%d", c.I, c.J)
		}
		if len(c.Seeds) == 0 {
			t.Fatal("candidate without seeds")
		}
	}
	// MinShared=2 must be a subset.
	strict := mat.SpGEMM(SpGEMMOptions{MaxSeedsPerPair: 16, MinShared: 2})
	if len(strict) > len(cands) {
		t.Fatal("stricter MinShared produced more candidates")
	}
}

func TestChooseSeedBinning(t *testing.T) {
	// Three seeds on one diagonal, one stray (repeat-induced): the dense
	// bin must win and the stray be outvoted.
	c := Candidate{I: 0, J: 1, Seeds: []SharedSeed{
		{PosI: 100, PosJ: 90},
		{PosI: 300, PosJ: 290},
		{PosI: 500, PosJ: 490},
		{PosI: 200, PosJ: 2900}, // stray diagonal
	}}
	got := ChooseSeed(c, 1000, 1000, 17, 500)
	if got.BinSupport != 3 {
		t.Fatalf("bin support = %d, want 3", got.BinSupport)
	}
	if got.PosI != 300 {
		t.Fatalf("median seed PosI = %d, want 300", got.PosI)
	}
	if got.Opposite {
		t.Fatal("orientation flipped")
	}
	if got.EstOverlap < 500 || got.EstOverlap > 1000 {
		t.Fatalf("overlap estimate %d out of range", got.EstOverlap)
	}
}

func TestChooseSeedOppositeStrand(t *testing.T) {
	c := Candidate{I: 0, J: 1, Seeds: []SharedSeed{
		{PosI: 100, PosJ: 800, Opposite: true},
		{PosI: 200, PosJ: 700, Opposite: true},
	}}
	got := ChooseSeed(c, 1000, 1000, 17, 500)
	if !got.Opposite {
		t.Fatal("expected opposite-strand seed")
	}
}

// TestChooseSeedNoAlloc: binning a candidate within the seed cap works on
// the stack.
func TestChooseSeedNoAlloc(t *testing.T) {
	c := Candidate{I: 0, J: 1}
	for i := int32(0); i < 16; i++ {
		c.Seeds = append(c.Seeds, SharedSeed{PosI: 50 * i, PosJ: 40*i + 700*(i%3), Opposite: i%5 == 0})
	}
	if n := testing.AllocsPerRun(100, func() { ChooseSeed(c, 2000, 2000, 17, 500) }); n != 0 {
		t.Fatalf("ChooseSeed allocated %v times per call", n)
	}
}

// TestBuildAlignmentPairsSharesRevComp: opposite-strand pairs against one
// read J share a single reverse complement; same-strand pairs alias the
// read itself.
func TestBuildAlignmentPairsSharesRevComp(t *testing.T) {
	rs := smallReadSet(t, 4, 5000, 3, 0.05)
	reads := rs.Reads[:4]
	cands := []Candidate{{I: 0, J: 3}, {I: 1, J: 3}, {I: 2, J: 3}}
	seeds := []ChosenSeed{{PosI: 5, PosJ: 10, Opposite: true}, {PosI: 7, PosJ: 20, Opposite: true}, {PosI: 9, PosJ: 30}}
	pairs := BuildAlignmentPairs(reads, cands, seeds, 17)
	want := reads[3].Seq.RevComp()
	for i := 0; i < 2; i++ {
		if string(pairs[i].Target) != string(want) {
			t.Fatalf("pair %d target is not the reverse complement of read 3", i)
		}
		if wantPos := len(want) - 17 - int(seeds[i].PosJ); pairs[i].SeedTPos != wantPos {
			t.Fatalf("pair %d seed at %d, want %d", i, pairs[i].SeedTPos, wantPos)
		}
	}
	if &pairs[0].Target[0] != &pairs[1].Target[0] {
		t.Fatal("opposite-strand pairs of one read hold separate reverse complements")
	}
	if &pairs[2].Target[0] != &reads[3].Seq[0] || pairs[2].SeedTPos != 30 {
		t.Fatal("same-strand pair does not alias the read")
	}
}

func TestAdaptiveThreshold(t *testing.T) {
	// e=0.15: pair error ~0.2775, phi ~0.445; L=1000, delta=0.25 -> ~334.
	th := AdaptiveThreshold(0.15, 0.25, 1000)
	if th < 300 || th > 360 {
		t.Fatalf("threshold = %d, want ~334", th)
	}
	if AdaptiveThreshold(0.15, 0.25, 10) < 1 {
		t.Fatal("threshold floor violated")
	}
	// Threshold grows with overlap length.
	if AdaptiveThreshold(0.15, 0.25, 2000) <= th {
		t.Fatal("threshold not monotone in overlap length")
	}
	// Degenerate error rate keeps a positive slope.
	if AdaptiveThreshold(0.5, 0.25, 1000) < 1 {
		t.Fatal("degenerate error rate broke the threshold")
	}
}

// cpuExtend is BELLA's SeqAn-style CPU baseline for the alignment stage:
// a CPU backend's ExtendBatch on GOMAXPROCS workers, closed with the test.
func cpuExtend(tb testing.TB) backend.ExtendFunc {
	cpu := backend.NewCPU(0)
	tb.Cleanup(func() { cpu.Close() })
	return cpu.ExtendBatch
}

func TestPipelineEndToEndCPU(t *testing.T) {
	rs := smallReadSet(t, 3, 60000, 5, 0.10)
	cfg := DefaultConfig(5, 0.10, 50)
	cfg.MinOverlap = 650
	res, err := Run(context.Background(), rs, cfg, cpuExtend(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates == 0 || len(res.Overlaps) == 0 {
		t.Fatalf("pipeline found %d candidates, %d overlaps", res.Candidates, len(res.Overlaps))
	}
	acc := Evaluate(rs, res.Overlaps, 700)
	if acc.Recall < 0.55 {
		t.Fatalf("recall %.3f below floor (tp=%d, truth=%d)", acc.Recall, acc.TruePositives, acc.TruePairs)
	}
	if acc.Precision < 0.80 {
		t.Fatalf("precision %.3f below floor", acc.Precision)
	}
	if res.Cells == 0 || res.Times.Total() <= 0 {
		t.Fatal("missing stage accounting")
	}
}

func TestPipelineValidation(t *testing.T) {
	rs := smallReadSet(t, 5, 20000, 2, 0.1)
	cfg := DefaultConfig(2, 0.1, 20)
	cfg.K = 0
	if _, err := Run(context.Background(), rs, cfg, cpuExtend(t)); err == nil {
		t.Error("accepted k=0")
	}
	cfg = DefaultConfig(2, 0.1, 20)
	cfg.Scoring.Gap = 1
	if _, err := Run(context.Background(), rs, cfg, cpuExtend(t)); err == nil {
		t.Error("accepted invalid scoring")
	}
	empty, err := Run(context.Background(), genome.ReadSet{}, DefaultConfig(2, 0.1, 20), cpuExtend(t))
	if err != nil || len(empty.Overlaps) != 0 {
		t.Errorf("empty read set: %+v, %v", empty, err)
	}
}

func TestEvaluateMetrics(t *testing.T) {
	g := genome.Genome{Name: "toy", Seq: seq.MustNew("ACGTACGTACGTACGTACGTACGT")}
	rs := genome.ReadSet{Genome: g, Reads: []genome.Read{
		{ID: 0, Start: 0, End: 10},
		{ID: 1, Start: 2, End: 12},
		{ID: 2, Start: 14, End: 24},
	}}
	// Truth at minOverlap 5: only (0,1) with 8 bases.
	preds := []Overlap{
		{I: 0, J: 1}, // true positive
		{I: 1, J: 2}, // false positive (no overlap)
		{I: 1, J: 0}, // duplicate of (0,1), must be deduped
	}
	acc := Evaluate(rs, preds, 5)
	if acc.TruePairs != 1 || acc.TruePositives != 1 || acc.PredictedPairs != 2 {
		t.Fatalf("accuracy = %+v", acc)
	}
	if acc.Recall != 1 || acc.Precision != 0.5 {
		t.Fatalf("recall/precision = %v/%v", acc.Recall, acc.Precision)
	}
	if acc.F1 <= 0.6 || acc.F1 >= 0.7 {
		t.Fatalf("F1 = %v, want 2/3", acc.F1)
	}
}

// TestPrepareCountsPinned pins the front end's counts on overlap-job-shaped
// read sets: reliable k-mers, matrix entries, candidate pairs and a digest
// of every candidate's chosen seed, at one worker and at more workers than
// the machine has. The values are those of the two-scan front end (count,
// then a hashed matrix scan) that the one k-mer pass replaced.
func TestPrepareCountsPinned(t *testing.T) {
	for _, want := range []struct {
		seed                 int64
		reliable, candidates int
		nnz                  int64
		seeds                string
	}{
		{1, 14589, 1736, 32956, "dd3139f23ae5aa89"},
		{2, 14568, 1701, 32265, "5fd7058fc3f7390e"},
		{3, 14599, 1807, 32600, "7b4fc21a70e5bf89"},
	} {
		rs := overlapJobReads(want.seed)
		for _, workers := range []int{1, 7} {
			cfg := DefaultConfig(8, 0.15, 25)
			cfg.Workers = workers
			prep, err := Prepare(context.Background(), rs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for i, s := range prep.Seeds {
				c := prep.Cands[i]
				for _, v := range []int64{int64(c.I), int64(c.J), int64(s.PosI), int64(s.PosJ), int64(s.EstOverlap), int64(s.BinSupport)} {
					binary.Write(h, binary.LittleEndian, v)
				}
				binary.Write(h, binary.LittleEndian, s.Opposite)
			}
			got := hex.EncodeToString(h.Sum(nil))[:16]
			if prep.Reliable != want.reliable || prep.NNZ != want.nnz || prep.Candidates != want.candidates || got != want.seeds {
				t.Errorf("seed %d, %d workers: reliable %d, nnz %d, candidates %d, seeds %s; want %d, %d, %d, %s",
					want.seed, workers, prep.Reliable, prep.NNZ, prep.Candidates, got, want.reliable, want.nnz, want.candidates, want.seeds)
			}
		}
	}
}
