package bella

import (
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

// matrix assembles the pruned records into the sparse matrix: partition
// p's kept records become its columns, after every earlier partition's,
// so the columns ascend by k-mer. Partitions are written in parallel.
func (r *kmerRuns) matrix(k, reads, workers int) *SparseMatrix {
	np := len(r.kept)
	col0, occ0 := make([]int, np+1), make([]int, np+1)
	for p := range np {
		col0[p+1], occ0[p+1] = col0[p]+r.cols[p], occ0[p]+r.kept[p]
	}
	cols, nnz := col0[np], occ0[np]
	m := &SparseMatrix{
		K: k, Reads: reads, Kmers: make([]seq.Kmer, cols),
		ColStart: make([]int, cols+1), Occ: make([]Occurrence, nnz), NNZ: int64(nnz),
	}
	m.ColStart[cols] = nnz
	par.Range(np, workers, func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			a := r.bounds[p]
			keys, occ := r.keys[a:a+r.kept[p]], r.occ[a:a+r.kept[p]]
			c, o := col0[p], occ0[p]
			for i, km := range keys {
				if i == 0 || km != keys[i-1] {
					m.Kmers[c], m.ColStart[c] = km, o+i
					c++
				}
				m.Occ[o+i] = Occurrence{Read: int32(occ[i] >> 32), Pos: int32(uint32(occ[i]) >> 1), RevCmp: occ[i]&1 != 0}
			}
		}
	})
	return m
}

// BuildMatrix assembles the sparse matrix over the given reliable k-mers
// (ascending, as Reliable returns them): one k-mer pass whose runs are
// merge-joined with reliable. Each read records at most one occurrence
// per k-mer, its first. A reliable k-mer no read holds gets an empty
// column.
func BuildMatrix(reads []genome.Read, k int, reliable []seq.Kmer) *SparseMatrix {
	return buildMatrix(reads, k, reliable, 0)
}

// buildMatrix is BuildMatrix on the given worker count.
func buildMatrix(reads []genome.Read, k int, reliable []seq.Kmer, workers int) *SparseMatrix {
	workers = par.Workers(workers)
	r := sortKmers(reads, k, workers, 0, true)
	r.prune(workers, 0, 0, reliable)
	m := r.matrix(k, len(reads), workers)
	colStart := make([]int, len(reliable)+1)
	c := 0 // the next column of m
	for j, km := range reliable {
		if c < len(m.Kmers) && m.Kmers[c] == km {
			c++
		}
		colStart[j+1] = m.ColStart[c]
	}
	m.Kmers, m.ColStart = reliable, colStart
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
