package bella

import (
	"cmp"
	"slices"

	"logan/internal/genome"
	"logan/internal/seq"
)

// ChosenSeed is the binning outcome for one candidate pair: the seed the
// extension starts from, the orientation, and the overlap-length estimate
// used by the adaptive threshold.
type ChosenSeed struct {
	PosI, PosJ int32
	Opposite   bool
	EstOverlap int // estimated overlap length in bases
	BinSupport int // k-mers in the winning bin
}

// ChooseSeed implements BELLA's binning mechanism (paper §V): shared
// k-mers are grouped by the diagonal they lie on (posI - posJ) within a
// bin width, separately per orientation; the densest bin wins (a repeat
// k-mer lands on a stray diagonal and is outvoted), and its median seed is
// the one the aligner extends. The overlap length is estimated from the
// winning diagonal and the read lengths. binWidth must be positive.
func ChooseSeed(c Candidate, lenI, lenJ, k, binWidth int) ChosenSeed {
	// Tag each seed with its (diagonal bin, orientation) key and sort by
	// (key, PosI): bins become runs. MaxSeeds is small, so the tagged
	// copy normally lives on the stack.
	type binned struct {
		key  int64
		seed SharedSeed
	}
	var stack [32]binned
	bs := stack[:0]
	for _, s := range c.Seeds {
		pj := int64(s.PosJ)
		if s.Opposite {
			// Map the J position onto the reverse strand so the diagonal
			// is stable for opposite-strand seeds.
			pj = int64(lenJ-k) - pj
		}
		key := (int64(s.PosI) - pj) / int64(binWidth) * 2
		if s.Opposite {
			key++
		}
		bs = append(bs, binned{key, s})
	}
	slices.SortFunc(bs, func(a, b binned) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.seed.PosI, b.seed.PosI))
	})
	// Densest bin, ties to the smallest key for determinism; its median
	// seed by PosI is the one to extend.
	var best []binned
	for lo := 0; lo < len(bs); {
		hi := lo + 1
		for hi < len(bs) && bs[hi].key == bs[lo].key {
			hi++
		}
		if hi-lo > len(best) {
			best = bs[lo:hi]
		}
		lo = hi
	}
	sel := best[len(best)/2].seed

	out := ChosenSeed{PosI: sel.PosI, PosJ: sel.PosJ, Opposite: sel.Opposite, BinSupport: len(best)}
	// Overlap estimate: with the seed at (pi, pj) the overlap extends
	// min(pi, pj) to the left and min(lenI-pi, lenJ-pj) to the right
	// (using the orientation-corrected J position).
	pj := int(sel.PosJ)
	if sel.Opposite {
		pj = lenJ - k - pj
	}
	left := min(int(sel.PosI), pj)
	right := min(lenI-int(sel.PosI), lenJ-pj)
	out.EstOverlap = left + right
	if out.EstOverlap < k {
		out.EstOverlap = k
	}
	return out
}

// BuildAlignmentPairs materializes the candidate pairs plus chosen seeds
// into the flat pair list the alignment stage extends. Opposite-strand
// candidates get a reverse-complemented target with the seed position
// remapped; a read's reverse complement is built once and shared by all
// its pairs.
func BuildAlignmentPairs(reads []genome.Read, cands []Candidate, seeds []ChosenSeed, k int) []seq.Pair {
	pairs := make([]seq.Pair, len(cands))
	revComp := make([]seq.Seq, len(reads))
	for i, c := range cands {
		ri, rj := reads[c.I], reads[c.J]
		target := rj.Seq
		pj := int(seeds[i].PosJ)
		if seeds[i].Opposite {
			if revComp[c.J] == nil {
				revComp[c.J] = rj.Seq.RevComp()
			}
			target = revComp[c.J]
			pj = len(rj.Seq) - k - pj
		}
		pairs[i] = seq.Pair{
			Query:    ri.Seq,
			Target:   target,
			SeedQPos: int(seeds[i].PosI),
			SeedTPos: pj,
			SeedLen:  k,
			ID:       i,
		}
	}
	return pairs
}
