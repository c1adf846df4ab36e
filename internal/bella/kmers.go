// Package bella rebuilds BELLA (Guidi et al.), the long-read many-to-many
// overlapper and aligner that the paper integrates LOGAN into (§V): k-mer
// counting over the read set, reliable-k-mer pruning with a binomial
// occurrence model, sparse-matrix (SpGEMM) overlap detection, k-mer binning
// to pick the seed each pair extends from, a pairwise-alignment stage
// that hands the pairs to one extend function (backend.ExtendFunc: a CPU
// backend's SeqAn-style threads, or the LOGAN engine on simulated GPUs),
// and the adaptive score threshold that separates true overlaps from
// spurious ones.
package bella

import (
	"math"
	"math/bits"
	"slices"

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

// kmerRuns is the outcome of one k-mer pass over a read set (sortKmers):
// the canonical k-mer of every N-free window it kept, radix-sorted, so
// that equal k-mers form runs and a run's length is its k-mer's count.
// With a payload, occ[i] is keys[i]'s packed occurrence (packOcc); the
// sort is stable, so each run lists its occurrences in (read, position)
// order.
type kmerRuns struct {
	keys   []seq.Kmer
	occ    []uint64
	bounds []int // partition p is keys[bounds[p]:bounds[p+1]]
	// After prune, partition p keeps its first kept[p] records, which
	// hold cols[p] distinct k-mers.
	kept, cols []int
}

// packOcc packs an occurrence into a sort payload: read above position
// above the strand bit.
func packOcc(read, pos int, rev uint64) uint64 { return uint64(read)<<32 | uint64(pos)<<1 | rev }

// sortKmers is the one k-mer pass: workers scan contiguous read ranges
// into flat buffers, which par.RadixSort sorts, stably, into cache-sized
// partitions by their top key bits. A pass for k-mers seen at least
// minCount >= 2 times runs a prefilter scan first and then keeps only the
// windows the prefilter admits, a superset of the windows of every k-mer
// seen twice, so every count of two or more stays exact. The outcome does
// not depend on workers.
func sortKmers(reads []genome.Read, k, workers int, minCount int32, payload bool) kmerRuns {
	workers = par.Workers(workers)
	s := kmerScan{reads: reads, k: k, payload: payload}
	windows := 0
	for _, r := range reads {
		windows += max(len(r.Seq)-k+1, 0)
	}
	if minCount >= 2 {
		marks := make([]prefilter, workers)
		par.Range(len(reads), workers, func(w, lo, hi int) {
			marks[w] = newPrefilter(windows, workers)
			s.scan(lo, hi, marks[w], nil, nil)
		})
		s.filter = mergePrefilters(marks, workers)
	}
	keys := make([][]seq.Kmer, workers)
	var occ [][]uint64
	if payload {
		occ = make([][]uint64, workers)
	}
	par.Range(len(reads), workers, func(w, lo, hi int) {
		n := 0
		for _, r := range reads[lo:hi] {
			n += max(len(r.Seq)-k+1, 0)
		}
		if s.filter.words != nil {
			n /= 4 // most windows are singletons the prefilter drops
		}
		kb := make([]seq.Kmer, 0, n)
		var ob []uint64
		if payload {
			ob = make([]uint64, 0, n)
		}
		keys[w], ob = s.scan(lo, hi, prefilter{}, kb, ob)
		if payload {
			occ[w] = ob
		}
	})
	var r kmerRuns
	r.keys, r.occ, r.bounds = par.RadixSort(keys, occ, uint(2*k), workers)
	return r
}

// kmerScan is what one k-mer pass scans: the reads, k, the merged
// prefilter (none admits every window) and whether windows carry their
// packed occurrence.
type kmerScan struct {
	reads   []genome.Read
	k       int
	filter  prefilter
	payload bool
}

// scan takes the windows of reads[lo:hi], read by read, and either counts
// each in mark, one worker's prefilter, or, when the pass's prefilter
// admits it, appends its k-mer to keys and, with a payload, its packed
// occurrence to occ.
func (s *kmerScan) scan(lo, hi int, mark prefilter, keys []seq.Kmer, occ []uint64) ([]seq.Kmer, []uint64) {
	var buf []uint64
	var pos []int32
	for ri := lo; ri < hi; ri++ {
		r := s.reads[ri].Seq
		if len(buf) < len(r) {
			buf, pos = make([]uint64, len(r)), make([]int32, len(r))
		}
		win := buf[:roll(r, s.k, buf, pos)]
		if mark.words != nil {
			for _, w := range win {
				mark.add(w >> 1)
			}
			continue
		}
		for j, w := range win {
			if s.filter.words == nil || s.filter.admits(w>>1) {
				keys = append(keys, seq.Kmer(w>>1))
				if s.payload {
					occ = append(occ, packOcc(ri, int(pos[j]), w&1))
				}
			}
		}
	}
	return keys, occ
}

// roll is the one loop of this package that reads bases. It writes the
// canonical k-mer of every N-free window of r, shifted left over a strand
// bit (set when the read spells the reverse complement), to win and the
// window's position to pos, and returns how many windows there are. Both
// strands roll, without a branch on the strand: each base shifts into the
// low end of the forward code and its complement into the high end of the
// reverse one.
func roll(r seq.Seq, k int, win []uint64, pos []int32) int {
	mask := uint64(1)<<(2*k) - 1
	top := uint(2*(k-1)) & 63 // bit offset of a window's first base
	win, pos = win[:len(r)], pos[:len(r)]
	var fw, rc uint64
	n, run := 0, 0 // windows so far; valid bases since the last N
	for i := range r {
		if r.IsN(i) {
			run = 0
			continue
		}
		c := uint64(r.Code(i))
		fw = (fw<<2 | c) & mask
		rc = rc>>2 | (c^3)<<top
		if run++; run < k {
			continue
		}
		canon, rev := fw, uint64(0)
		if rc < fw {
			canon, rev = rc, 1
		}
		win[n], pos[n] = canon<<1|rev, int32(i-k+1)
		n++
	}
	return n
}

// prefilter holds a 2-bit saturating count (0, 1, 2 or more) per hash
// slot, 32 slots to a word. Slot counts only over-count, by collisions,
// so a k-mer seen twice always finds its slot at 2.
type prefilter struct {
	words []uint64
	shift uint // a k-mer's slot is the top bits of its Fibonacci hash
}

// newPrefilter sizes one of workers filters for n windows: about four
// slots per window, which is one byte per window, and fewer once more
// than eight workers would together hold more bytes than the window keys.
func newPrefilter(n, workers int) prefilter {
	width := max(uint(bits.Len(uint(32*n/max(workers, 8)))), 5)
	return prefilter{words: make([]uint64, 1<<(width-5)), shift: 64 - width}
}

// slot locates km's count: its word and the bit offset within it.
func (f prefilter) slot(km uint64) (word int, sh uint) {
	h := km * 0x9E3779B97F4A7C15 >> f.shift
	return int(h >> 5), uint(h&31) * 2
}

// add counts one more window of km, saturating at 2.
func (f prefilter) add(km uint64) {
	w, sh := f.slot(km)
	f.words[w] += (f.words[w]>>(sh+1)&1 ^ 1) << sh
}

// admits reports whether km's slot counted two windows or more.
func (f prefilter) admits(km uint64) bool {
	w, sh := f.slot(km)
	return f.words[w]>>(sh+1)&1 != 0
}

// mergePrefilters adds the workers' filters slot by slot, saturating,
// into the first. Saturating addition is associative and commutative, so
// the merged filter counts min(windows, 2) per slot however the reads
// were split.
func mergePrefilters(fs []prefilter, workers int) prefilter {
	const lo = 0x5555555555555555 // the low bit of every slot
	dst := fs[0].words
	par.Range(len(dst), workers, func(_, a, b int) {
		for _, f := range fs[1:] {
			for i, x := range f.words[a:b] {
				y := dst[a+i]
				xl, xh, yl, yh := x&lo, x>>1&lo, y&lo, y>>1&lo
				h := xh | yh | xl&yl
				dst[a+i] = h<<1 | (xl|yl)&^h
			}
		}
	})
	return fs[0]
}

// runEnd returns the end of the run of equal keys that starts at i.
func runEnd(keys []seq.Kmer, i int) int {
	j := i + 1
	for j < len(keys) && keys[j] == keys[i] {
		j++
	}
	return j
}

// prune walks every partition's runs in parallel. A run is kept when its
// length, the k-mer's exact count, lies in [lo, hi] or, when only is not
// nil, when its k-mer is in only (ascending), merge-joined. A kept run is
// cut to its first occurrence per read (later duplicates within a read
// are skipped, as BELLA does to suppress simple tandem repeats). Kept
// records move to the front of their partition, in place.
func (r *kmerRuns) prune(workers int, lo, hi int32, only []seq.Kmer) {
	np := len(r.bounds) - 1
	r.kept, r.cols = make([]int, np), make([]int, np)
	par.Range(np, workers, func(_, plo, phi int) {
		for p := plo; p < phi; p++ {
			keys, occ := r.keys[r.bounds[p]:r.bounds[p+1]], r.occ[r.bounds[p]:r.bounds[p+1]]
			if len(keys) == 0 {
				continue
			}
			j, _ := slices.BinarySearch(only, keys[0])
			d := 0 // keys[:d], occ[:d] hold the kept records
			for i := 0; i < len(keys); {
				end := runEnd(keys, i)
				var keep bool
				if only == nil {
					keep = int32(end-i) >= lo && int32(end-i) <= hi
				} else {
					for j < len(only) && only[j] < keys[i] {
						j++
					}
					keep = j < len(only) && only[j] == keys[i]
				}
				if !keep {
					i = end
					continue
				}
				r.cols[p]++
				prev := uint64(math.MaxUint64) // read of the last kept record
				for ; i < end; i++ {
					if read := occ[i] >> 32; read != prev {
						keys[d], occ[d], prev = keys[i], occ[i], read
						d++
					}
				}
			}
			r.kept[p] = d
		}
	})
}

// CountKmers tallies canonical k-mer multiplicities across all reads —
// BELLA's first pass — by sorting rather than hashing: one k-mer pass
// with neither prefilter nor payload, after which each sorted partition
// is run-length counted on its own. A sorted multiset has one order, so
// the index is the same for any worker count.
func CountKmers(reads []genome.Read, k, workers int) KmerIndex {
	workers = par.Workers(workers)
	r := sortKmers(reads, k, workers, 0, false)
	keys, start := r.keys, r.bounds

	// Compact each sorted partition in place to its distinct k-mers.
	counts := make([]int32, len(keys))
	distinct := make([]int, len(start)-1)
	par.Range(len(distinct), workers, func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			part, cnt := keys[start[p]:start[p+1]], counts[start[p]:start[p+1]]
			d := 0 // part[:d] holds the distinct k-mers seen so far
			for i := 0; i < len(part); d++ {
				end := runEnd(part, i)
				part[d], cnt[d] = part[i], int32(end-i)
				i = end
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
