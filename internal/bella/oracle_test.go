package bella

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"logan/internal/genome"
	"logan/internal/seq"
)

// The oracles below are the map-based front end this package shipped
// before the sort-based one: per-position Encode and the O(k) Canonical
// instead of the rolling scan, Go maps instead of sorted runs. They define
// what CountKmers, Reliable, BuildMatrix, SpGEMM and ChooseSeed must
// return.

func oracleCountKmers(reads []genome.Read, k int) map[seq.Kmer]int32 {
	codec := seq.MustKmerCodec(k)
	counts := make(map[seq.Kmer]int32)
	for _, r := range reads {
		for pos := 0; pos+k <= len(r.Seq); pos++ {
			if km, ok := codec.Encode(r.Seq, pos); ok {
				counts[codec.Canonical(km)]++
			}
		}
	}
	return counts
}

func oracleReliable(counts map[seq.Kmer]int32, lo, hi int32) []seq.Kmer {
	var out []seq.Kmer
	for km, c := range counts {
		if c >= lo && c <= hi {
			out = append(out, km)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// oracleBuildMatrix returns the matrix as one occurrence list per column.
func oracleBuildMatrix(reads []genome.Read, k int, reliable []seq.Kmer) [][]Occurrence {
	colIndex := make(map[seq.Kmer]int32, len(reliable))
	for i, km := range reliable {
		colIndex[km] = int32(i)
	}
	cols := make([][]Occurrence, len(reliable))
	codec := seq.MustKmerCodec(k)
	seen := make(map[int32]bool)
	for ri, r := range reads {
		clear(seen)
		for pos := 0; pos+k <= len(r.Seq); pos++ {
			km, ok := codec.Encode(r.Seq, pos)
			if !ok {
				continue
			}
			canon := codec.Canonical(km)
			col, ok := colIndex[canon]
			if !ok || seen[col] {
				continue
			}
			seen[col] = true
			cols[col] = append(cols[col], Occurrence{Read: int32(ri), Pos: int32(pos), RevCmp: canon != km})
		}
	}
	return cols
}

func oracleSpGEMM(cols [][]Occurrence, opt SpGEMMOptions) []Candidate {
	type key struct{ i, j int32 }
	acc := make(map[key]*Candidate)
	for _, col := range cols {
		for a := 0; a < len(col); a++ {
			for b := a + 1; b < len(col); b++ {
				oi, oj := col[a], col[b]
				k := key{oi.Read, oj.Read}
				c, ok := acc[k]
				if !ok {
					c = &Candidate{I: k.i, J: k.j}
					acc[k] = c
				}
				if len(c.Seeds) < opt.MaxSeedsPerPair {
					c.Seeds = append(c.Seeds, SharedSeed{PosI: oi.Pos, PosJ: oj.Pos, Opposite: oi.RevCmp != oj.RevCmp})
				}
			}
		}
	}
	var out []Candidate
	for _, c := range acc {
		if len(c.Seeds) >= opt.MinShared {
			out = append(out, *c)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].J < out[b].J
	})
	return out
}

func oracleChooseSeed(c Candidate, lenI, lenJ, k, binWidth int) ChosenSeed {
	type bin struct{ seeds []SharedSeed }
	bins := make(map[int64]*bin)
	for _, s := range c.Seeds {
		pj := int64(s.PosJ)
		if s.Opposite {
			pj = int64(lenJ-k) - int64(s.PosJ)
		}
		kb := (int64(s.PosI) - pj) / int64(binWidth) * 2
		if s.Opposite {
			kb++
		}
		if bins[kb] == nil {
			bins[kb] = &bin{}
		}
		bins[kb].seeds = append(bins[kb].seeds, s)
	}
	var bestKey int64
	var best *bin
	for kb, b := range bins {
		if best == nil || len(b.seeds) > len(best.seeds) || (len(b.seeds) == len(best.seeds) && kb < bestKey) {
			best, bestKey = b, kb
		}
	}
	sort.Slice(best.seeds, func(a, b int) bool { return best.seeds[a].PosI < best.seeds[b].PosI })
	sel := best.seeds[len(best.seeds)/2]
	out := ChosenSeed{PosI: sel.PosI, PosJ: sel.PosJ, Opposite: sel.Opposite, BinSupport: len(best.seeds)}
	pj := int(sel.PosJ)
	if sel.Opposite {
		pj = lenJ - k - pj
	}
	out.EstOverlap = max(k, min(int(sel.PosI), pj)+min(lenI-int(sel.PosI), lenJ-pj))
	return out
}

// checkFrontEnd runs stages 1-5 on reads for one (k, workers) and fails on
// the first difference from the oracles. lo/hi are the reliable window.
func checkFrontEnd(t testing.TB, reads []genome.Read, k, workers int, lo, hi int32) {
	t.Helper()
	idx := CountKmers(reads, k, workers)
	want := oracleCountKmers(reads, k)
	if len(idx.Kmers) != len(want) || len(idx.Counts) != len(want) {
		t.Fatalf("k=%d workers=%d: %d distinct k-mers, %d counts, oracle %d", k, workers, len(idx.Kmers), len(idx.Counts), len(want))
	}
	for i, km := range idx.Kmers {
		if i > 0 && idx.Kmers[i-1] >= km {
			t.Fatalf("k=%d workers=%d: index not strictly ascending at %d", k, workers, i)
		}
		if idx.Counts[i] != want[km] {
			t.Fatalf("k=%d workers=%d: k-mer %#x counted %d times, oracle %d", k, workers, km, idx.Counts[i], want[km])
		}
	}
	reliable := idx.Reliable(lo, hi)
	if wantRel := oracleReliable(want, lo, hi); !slices.Equal(reliable, wantRel) {
		t.Fatalf("k=%d workers=%d: reliable set differs: %d k-mers, oracle %d", k, workers, len(reliable), len(wantRel))
	}

	// The matrix two ways: BuildMatrix over the reliable list, and the
	// pipeline's one pass (prefilter, sort, prune, assembly) on [lo, hi].
	wantCols := oracleBuildMatrix(reads, k, reliable)
	runs := sortKmers(reads, k, workers, lo, true)
	runs.prune(workers, lo, hi, nil)
	onePass := runs.matrix(k, len(reads), workers)
	if !slices.Equal(onePass.Kmers, reliable) {
		t.Fatalf("k=%d workers=%d: one pass has %d columns, oracle %d", k, workers, len(onePass.Kmers), len(reliable))
	}
	for name, mat := range map[string]*SparseMatrix{"BuildMatrix": buildMatrix(reads, k, reliable, workers), "one pass": onePass} {
		nnz := 0
		for c, wantCol := range wantCols {
			if !slices.Equal(mat.Col(c), wantCol) {
				t.Fatalf("k=%d workers=%d %s: column %d = %v, oracle %v", k, workers, name, c, mat.Col(c), wantCol)
			}
			nnz += len(wantCol)
		}
		if mat.NNZ != int64(nnz) || len(mat.Occ) != nnz || mat.Reads != len(reads) {
			t.Fatalf("k=%d workers=%d %s: NNZ %d, len(Occ) %d, reads %d; oracle %d, %d", k, workers, name, mat.NNZ, len(mat.Occ), mat.Reads, nnz, len(reads))
		}
	}
	mat := onePass

	for _, opt := range []SpGEMMOptions{{MaxSeedsPerPair: 16, MinShared: 1}, {MaxSeedsPerPair: 2, MinShared: 2}, {MaxSeedsPerPair: 1, MinShared: 3}} {
		cands, wantCands := mat.SpGEMM(opt), oracleSpGEMM(wantCols, opt)
		if len(cands) != len(wantCands) {
			t.Fatalf("k=%d workers=%d %+v: %d candidates, oracle %d", k, workers, opt, len(cands), len(wantCands))
		}
		for i, c := range cands {
			if !reflect.DeepEqual(c, wantCands[i]) {
				t.Fatalf("k=%d workers=%d %+v: candidate %d = %+v, oracle %+v", k, workers, opt, i, c, wantCands[i])
			}
			lenI, lenJ := len(reads[c.I].Seq), len(reads[c.J].Seq)
			for _, width := range []int{500, 7} {
				if got, want := ChooseSeed(c, lenI, lenJ, k, width), oracleChooseSeed(c, lenI, lenJ, k, width); got != want {
					t.Fatalf("k=%d workers=%d width=%d: candidate %d seed %+v, oracle %+v", k, workers, width, i, got, want)
				}
			}
		}
	}
}

// differentialReads is a small overlapping read set that also holds the
// awkward inputs: N runs (inside a read and at both ends), a read of only
// N, reads shorter than any tested k and an empty read, a tandem repeat
// (duplicates of a k-mer within a read), and a read next to its own
// reverse complement (opposite-strand seeds and palindromic windows).
func differentialReads() []genome.Read {
	rng := rand.New(rand.NewSource(7))
	g := genome.Synthetic(rng, "diff", genome.SyntheticOptions{Length: 3000, RepeatFrac: 0.1, RepeatLen: 200})
	rs := genome.Simulate(rng, g, genome.SimOptions{Coverage: 6, MinLen: 150, MaxLen: 500, ErrorRate: 0.03})
	reads := rs.Reads
	withN := reads[0].Seq.Clone()
	copy(withN[40:], "NNNNN")
	withN[0], withN[len(withN)-1], withN[90] = 'N', 'N', 'N'
	for _, s := range []seq.Seq{
		withN,
		seq.MustNew("NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN"),
		seq.MustNew("ACG"),
		{},
		seq.MustNew("ACGTTGCAACGTTGCAACGTTGCAACGTTGCAACGTTGCAACGTTGCAACGTTGCAACGTTGCA"),
		reads[1].Seq.RevComp(),
	} {
		reads = append(reads, genome.Read{ID: len(reads), Seq: s})
	}
	return reads
}

// TestFrontEndMatchesOracles compares the sort-based stages 1-5 with the
// map-based oracles across k (1, both sides of the 8- and 32-bit key
// widths, MaxK) and worker counts (one, few, more than divide the reads).
func TestFrontEndMatchesOracles(t *testing.T) {
	reads := differentialReads()
	for _, k := range []int{1, 4, 5, 16, 17, 31} {
		for _, workers := range []int{1, 2, 7} {
			t.Run(fmt.Sprintf("k=%d/workers=%d", k, workers), func(t *testing.T) {
				hi := int32(8)
				if k < 5 {
					hi = 1000 // short k-mers recur; keep some columns
				}
				checkFrontEnd(t, reads, k, workers, 2, hi)
				checkFrontEnd(t, reads[len(reads)-4:], k, workers, 1, 3)
				checkFrontEnd(t, nil, k, workers, 1, 3)
			})
		}
	}
}

// TestCountKmersPartitioned covers the partitioned path, including
// k-mers that recur across reads scanned by different workers.
// par.RadixSort gives n keys at least bits.Len(n>>12) partition bits, so
// the read set holds at least 2^13 windows: at least 4 partitions, each
// left with 16 or more of a 13-mer's 26 bits, two byte-wise passes or
// more.
func TestCountKmersPartitioned(t *testing.T) {
	rs := smallReadSet(t, 5, 4000, 3, 0.05)
	windows := 0
	for _, r := range rs.Reads {
		windows += max(len(r.Seq)-12, 0)
	}
	if windows < 1<<13 {
		t.Fatalf("%d windows: too few for 4 partitions", windows)
	}
	for _, workers := range []int{1, 3} {
		checkFrontEnd(t, rs.Reads, 13, workers, 2, 30)
	}
}

// fuzzReads cuts raw into 1-8 reads, mapping every byte onto ACGTN so
// that window restarts are exercised, and derives from nreads' high bits
// and the input length the worker count (1-4) and the reliable window
// lo in {1, 2, 3}, hi in [lo, lo+5].
func fuzzReads(raw []byte, nreads int) (reads []genome.Read, workers int, lo, hi int32) {
	s := make(seq.Seq, len(raw))
	for i, c := range raw {
		s[i] = "ACGTN"[int(c)%5]
	}
	reads = make([]genome.Read, 1+(nreads&0x7fff)%8)
	for i := range reads {
		reads[i] = genome.Read{ID: i, Seq: s[i*len(s)/len(reads) : (i+1)*len(s)/len(reads)]}
	}
	sel := uint(nreads>>15) + uint(len(raw))
	lo = 1 + int32(sel/4%3)
	return reads, 1 + int(sel%4), lo, lo + int32(sel/12%6)
}

// FuzzCountKmersDifferential: for arbitrary bytes cut into reads, an
// arbitrary k and reliable window, and 1-4 workers, the sort-based front
// end (CountKmers, Reliable, BuildMatrix and the pipeline's one pass,
// prefilter included) must equal the map-based oracles. The seed corpus
// is testdata/fuzz/FuzzCountKmersDifferential.
func FuzzCountKmersDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, k, nreads int) {
		if k < 1 || k > seq.MaxK || len(raw) > 2000 {
			return
		}
		reads, workers, lo, hi := fuzzReads(raw, nreads)
		checkFrontEnd(t, reads, k, workers, lo, hi)
	})
}

// TestPrefilterAdmitsSingletons makes sure the fuzzer's seeds reach the
// prefilter's collision path: at least one seed input has a k-mer that
// occurs once but shares its filter slot with another, so the pass keeps
// it, and its count of 1 must then fail the reliable test by itself.
func TestPrefilterAdmitsSingletons(t *testing.T) {
	dir := "testdata/fuzz/FuzzCountKmersDifferential"
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var admitted []string
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// go test fuzz v1, then []byte("..."), int(k), int(nreads).
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) != 4 {
			t.Fatalf("%s: %d lines", e.Name(), len(lines))
		}
		raw, err1 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		k, err2 := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(lines[2], "int("), ")"))
		nreads, err3 := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(lines[3], "int("), ")"))
		if err := cmp.Or(err1, err2, err3); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		reads, workers, _, _ := fuzzReads([]byte(raw), nreads)
		counts := oracleCountKmers(reads, k)
		for _, km := range sortKmers(reads, k, workers, 2, false).keys {
			if counts[km] == 1 {
				admitted = append(admitted, e.Name())
				break
			}
		}
	}
	if len(admitted) == 0 {
		t.Fatal("no seed input makes the prefilter admit a k-mer that occurs once")
	}
	t.Logf("seeds with an admitted singleton: %v", admitted)
}
