// Package bella rebuilds BELLA (Guidi et al.), the long-read many-to-many
// overlapper and aligner that the paper integrates LOGAN into (§V): k-mer
// counting over the read set, reliable-k-mer pruning with a binomial
// occurrence model, sparse-matrix (SpGEMM) overlap detection, k-mer binning
// to pick the seed each pair extends from, a pluggable pairwise-alignment
// stage (SeqAn-style CPU threads or batched LOGAN on simulated GPUs), and
// the adaptive score threshold that separates true overlaps from spurious
// ones.
package bella

import (
	"math"

	"logan/internal/genome"
	"logan/internal/par"
	"logan/internal/seq"
)

// Occurrence is one nonzero of the reads-by-k-mers matrix: the first
// position in read Read at which a column's k-mer occurs. RevCmp is true
// when the read spells the reverse complement of the canonical form at Pos
// (the forward window there is not the canonical k-mer), so two reads see
// a k-mer on opposite strands exactly when their RevCmp flags differ.
type Occurrence struct {
	Read   int32
	Pos    int32
	RevCmp bool
}

// KmerIndex is the outcome of counting: the distinct canonical k-mers of
// the read set in ascending order, and in Counts[i] the number of windows,
// over all reads, whose canonical form is Kmers[i].
type KmerIndex struct {
	K      int
	Kmers  []seq.Kmer
	Counts []int32
}

// CountKmers tallies canonical k-mer multiplicities across all reads —
// BELLA's first pass — by sorting rather than hashing. Workers scan
// disjoint reads into flat key buffers, which par.RadixSort scatters into
// cache-sized partitions by their top bits and radix-sorts on the rest;
// each partition is then run-length counted on its own. A sorted multiset
// has one order, so the index is the same for any worker count.
func CountKmers(reads []genome.Read, k, workers int) KmerIndex {
	workers = par.Workers(workers)
	codec := seq.MustKmerCodec(k)
	bufs := make([][]seq.Kmer, workers)
	par.Range(len(reads), workers, func(w, lo, hi int) {
		n := 0
		for _, r := range reads[lo:hi] {
			n += len(r.Seq)
		}
		keys := make([]seq.Kmer, 0, n)
		var scan []seq.Positioned
		for _, r := range reads[lo:hi] {
			scan = codec.Scan(scan[:0], r.Seq, true)
			for _, p := range scan {
				keys = append(keys, p.Kmer)
			}
		}
		bufs[w] = keys
	})
	keys, _, start := par.RadixSort(bufs, nil, uint(2*k), workers)

	// Compact each sorted partition in place to its distinct k-mers.
	counts := make([]int32, len(keys))
	distinct := make([]int, len(start)-1)
	par.Range(len(distinct), workers, func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			part, cnt := keys[start[p]:start[p+1]], counts[start[p]:start[p+1]]
			d := 0 // part[:d] holds the distinct k-mers seen so far
			for i, km := range part {
				if i > 0 && km == part[d-1] {
					cnt[d-1]++
					continue
				}
				part[d], cnt[d] = km, 1
				d++
			}
			distinct[p] = d
		}
	})
	n := 0
	for p, d := range distinct {
		copy(keys[n:], keys[start[p]:start[p]+d])
		copy(counts[n:], counts[start[p]:start[p]+d])
		n += d
	}
	return KmerIndex{K: k, Kmers: keys[:n], Counts: counts[:n]}
}

// ReliableBounds computes BELLA's reliable-k-mer multiplicity window for a
// data set with mean coverage c and per-base error rate e. A k-mer that
// survives sequencing error-free does so with probability p = (1-e)^k; a
// unique genomic k-mer therefore appears ~Bin(c, p) times in the reads.
//
// The lower bound is fixed at 2 (singletons are overwhelmingly sequencing
// errors), and the upper bound is the smallest m whose probability under a
// two-copy (repeat) genomic k-mer, Bin(2c, p), falls below tail: k-mers
// more frequent than that are repeat-induced and would generate spurious
// overlap candidates (BELLA's pruning argument).
func ReliableBounds(coverage, errRate float64, k int, tail float64) (lo, hi int32) {
	if tail <= 0 {
		tail = 1e-3
	}
	p := math.Pow(1-errRate, float64(k))
	n := int(math.Round(2 * coverage))
	if n < 2 {
		n = 2
	}
	lo = 2
	// Upper bound: smallest m with P(Bin(n,p) >= m) < tail.
	for m := 1; m <= n; m++ {
		if binomTail(n, p, m) < tail {
			hi = int32(m)
			break
		}
	}
	if hi < lo {
		hi = lo + 2
	}
	return lo, hi
}

// binomTail returns P(X >= m) for X ~ Bin(n, p).
func binomTail(n int, p float64, m int) float64 {
	if m <= 0 {
		return 1
	}
	var tailP float64
	for x := m; x <= n; x++ {
		tailP += math.Exp(logChoose(n, x) + float64(x)*math.Log(p) + float64(n-x)*math.Log1p(-p))
	}
	if tailP > 1 {
		tailP = 1
	}
	return tailP
}

func logChoose(n, k int) float64 {
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lg - lk - lnk
}

// Reliable filters the index down to k-mers whose multiplicity falls in
// [lo, hi], in ascending order: one pass over the sorted runs.
func (idx KmerIndex) Reliable(lo, hi int32) []seq.Kmer {
	var out []seq.Kmer
	for i, c := range idx.Counts {
		if c >= lo && c <= hi {
			out = append(out, idx.Kmers[i])
		}
	}
	return out
}
