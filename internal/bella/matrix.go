package bella

import (
	"math/bits"
	"slices"

	"logan/internal/genome"
	"logan/internal/par"
	"logan/internal/seq"
)

// SparseMatrix is the reads-by-reliable-k-mers sparse matrix A of BELLA's
// formulation, stored by k-mer column (the transpose view, A^T rows, which
// is what the multiply iterates) in one flat array with per-entry
// positions. Column ids index the reliable k-mer list.
type SparseMatrix struct {
	K     int
	Reads int        // number of rows: read ids lie in [0, Reads)
	Kmers []seq.Kmer // column id -> canonical k-mer
	// Occ[ColStart[c]:ColStart[c+1]] lists the occurrences of k-mer c
	// across all reads, by ascending read id, at most one per read.
	ColStart []int
	Occ      []Occurrence
	// NNZ is the number of stored entries, len(Occ).
	NNZ int64
}

// Col returns the occurrences of column c.
func (m *SparseMatrix) Col(c int) []Occurrence { return m.Occ[m.ColStart[c]:m.ColStart[c+1]] }

// colTable resolves a canonical k-mer to its column id: a flat
// open-addressing table (linear probing, at most half full) whose slots
// hold the key inline, so a miss — most windows of a noisy read — costs
// one cache line.
type colTable struct {
	slots []colSlot
	shift uint
}

type colSlot struct {
	key seq.Kmer
	col int32 // column id + 1; 0 marks an empty slot
}

func newColTable(kmers []seq.Kmer) colTable {
	width := uint(bits.Len(uint(2 * len(kmers)))) // 2^width > 2*len(kmers)
	t := colTable{slots: make([]colSlot, 1<<width), shift: 64 - width}
	for c, km := range kmers {
		i := t.slot(km)
		for t.slots[i].col != 0 && t.slots[i].key != km {
			i = (i + 1) & (len(t.slots) - 1)
		}
		t.slots[i] = colSlot{key: km, col: int32(c) + 1}
	}
	return t
}

// slot is km's home slot (Fibonacci hashing: the top bits of a multiply by
// 2^64/phi, which spreads the low-entropy high bits of short k-mers).
func (t colTable) slot(km seq.Kmer) int { return int(uint64(km) * 0x9E3779B97F4A7C15 >> t.shift) }

// lookup returns km's column id, or -1 when km is not a column.
func (t colTable) lookup(km seq.Kmer) int32 {
	for i := t.slot(km); ; i = (i + 1) & (len(t.slots) - 1) {
		if s := t.slots[i]; s.col == 0 || s.key == km {
			return s.col - 1
		}
	}
}

// BuildMatrix scans every read for reliable k-mers and assembles the
// sparse matrix. Each read records at most one occurrence per k-mer, its
// first (later duplicates within a read are skipped, as BELLA does to
// suppress simple tandem repeats).
func BuildMatrix(reads []genome.Read, k int, reliable []seq.Kmer) *SparseMatrix {
	return buildMatrix(reads, k, reliable, 0)
}

// buildMatrix is BuildMatrix on the given worker count. Workers scan
// contiguous read ranges into hit lists in read order; a counting sort by
// column over the lists in worker order then yields every column in
// ascending read order whatever the split was.
func buildMatrix(reads []genome.Read, k int, reliable []seq.Kmer, workers int) *SparseMatrix {
	workers = par.Workers(workers)
	codec := seq.MustKmerCodec(k)
	table := newColTable(reliable)
	type hit struct {
		col int32
		occ Occurrence
	}
	hits := make([][]hit, workers)
	par.Range(len(reads), workers, func(w, lo, hi int) {
		// lastRead[c] is the last read (id + 1) of this range that hit
		// column c: the once-per-read rule without a per-read set.
		lastRead := make([]int32, len(reliable))
		var scan []seq.Positioned
		var out []hit
		for ri := lo; ri < hi; ri++ {
			scan = codec.Scan(scan[:0], reads[ri].Seq, true)
			for _, p := range scan {
				col := table.lookup(p.Kmer)
				if col < 0 || lastRead[col] == int32(ri)+1 {
					continue
				}
				lastRead[col] = int32(ri) + 1
				out = append(out, hit{col, Occurrence{Read: int32(ri), Pos: int32(p.Pos), RevCmp: p.Rev}})
			}
		}
		hits[w] = out
	})
	m := &SparseMatrix{K: k, Reads: len(reads), Kmers: reliable, ColStart: make([]int, len(reliable)+1)}
	for _, hs := range hits {
		for _, h := range hs {
			m.ColStart[h.col+1]++
		}
		m.NNZ += int64(len(hs))
	}
	for c := range reliable {
		m.ColStart[c+1] += m.ColStart[c]
	}
	m.Occ = make([]Occurrence, m.NNZ)
	next := slices.Clone(m.ColStart)
	for _, hs := range hits {
		for _, h := range hs {
			m.Occ[next[h.col]] = h.occ
			next[h.col]++
		}
	}
	return m
}

// SharedSeed is one k-mer shared by a candidate read pair: positions of
// the k-mer in both reads and whether the reads see it on opposite
// strands (in which case read J must be reverse-complemented to align).
type SharedSeed struct {
	PosI, PosJ int32
	Opposite   bool
}

// Candidate is an overlap candidate produced by the SpGEMM: a read pair
// with the seeds they share.
type Candidate struct {
	I, J  int32 // read indices, I < J
	Seeds []SharedSeed
}

// SpGEMMOptions bounds the multiply. Both fields are resolved values
// (DefaultConfig holds the defaults): a zero cap keeps no seed.
type SpGEMMOptions struct {
	MaxSeedsPerPair int // cap stored seeds per pair (BELLA keeps a handful)
	MinShared       int // minimum shared k-mers to emit a candidate
}

// SpGEMM computes the overlap candidates: the nonzero pattern of A * A^T
// restricted to the strict upper triangle, ordered by (I, J), with the
// shared k-mer position pairs as values. The multiply walks each k-mer
// column and emits every read pair in it (outer-product/column formulation
// of Gustavson's algorithm; identical output to BELLA's row-wise hash
// SpGEMM). Reliable
// k-mer pruning bounds the column lengths, which is what keeps this near
// linear — the point of BELLA's pruning stage.
func (m *SparseMatrix) SpGEMM(opt SpGEMMOptions) []Candidate {
	// One (I, J, seed) triple per shared k-mer, sorted by (I, J) with two
	// stable counting passes over the read ids — J, then I — so that each
	// candidate's seeds stay in emission order, which is ascending k-mer
	// order: the order the cap keeps. A read at index a of a column of
	// length l is the I of l-1-a triples and the J of a.
	type triple struct {
		i, j int32
		seed SharedSeed
	}
	startI, startJ := make([]int, m.Reads+1), make([]int, m.Reads+1)
	for c := range m.Kmers {
		col := m.Col(c)
		for a, o := range col {
			startI[o.Read+1] += len(col) - 1 - a
			startJ[o.Read+1] += a
		}
	}
	for r := 0; r < m.Reads; r++ {
		startI[r+1] += startI[r]
		startJ[r+1] += startJ[r]
	}
	n := startI[m.Reads]
	byJ, triples := make([]triple, n), make([]triple, n)
	for c := range m.Kmers {
		col := m.Col(c)
		for a, oi := range col {
			for _, oj := range col[a+1:] {
				byJ[startJ[oj.Read]] = triple{oi.Read, oj.Read, SharedSeed{PosI: oi.Pos, PosJ: oj.Pos, Opposite: oi.RevCmp != oj.RevCmp}}
				startJ[oj.Read]++
			}
		}
	}
	for _, t := range byJ {
		triples[startI[t.i]] = t
		startI[t.i]++
	}

	var out []Candidate
	seeds := make([]SharedSeed, 0, n) // backing store of every Candidate.Seeds
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && triples[hi].i == triples[lo].i && triples[hi].j == triples[lo].j {
			hi++
		}
		if kept := min(hi-lo, opt.MaxSeedsPerPair); kept >= opt.MinShared {
			from := len(seeds)
			for _, t := range triples[lo : lo+kept] {
				seeds = append(seeds, t.seed)
			}
			out = append(out, Candidate{I: triples[lo].i, J: triples[lo].j, Seeds: seeds[from:len(seeds):len(seeds)]})
		}
		lo = hi
	}
	return out
}
