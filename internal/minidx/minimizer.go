// Package minidx implements the reference side of the mapping pipeline:
// windowed minimizer extraction over DNA sequences and a persistent
// minimizer index — an open-addressing k-mer → positions table over a
// reference FASTA with high-occurrence masking and a versioned,
// CRC-guarded binary serialization. It is the seeding stage of the
// minimap2-style pipeline (minimize → chain → extend) whose extension
// stage is the repository's batched X-drop engine.
package minidx

import (
	"fmt"

	"logan/internal/seq"
)

// Minimizer is one selected k-mer occurrence: the mixed hash of its
// canonical (strand-independent) form, the start position of the k-mer
// on the forward strand, and whether the canonical form is the reverse
// complement of the forward k-mer at that position.
type Minimizer struct {
	Hash uint64
	Pos  int32
	// Rev marks occurrences whose canonical k-mer is the reverse
	// complement of the forward-strand window (strand-symmetric
	// palindromic k-mers count as forward).
	Rev bool
}

// mix64 is the splitmix64 finalizer: it decorrelates the 2-bit k-mer code
// from its lexicographic value so low-complexity k-mers (poly-A runs)
// stop being systematically minimal, which would cluster minimizers on
// repeats. The full 64-bit image keys the index table; distinct k-mers
// colliding is negligible at 2^-64 per pair and harmless anyway — a
// false anchor scores nothing in chaining/extension.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ValidateKW rejects parameter combinations extraction cannot honor.
func ValidateKW(k, w int) error {
	if k < 1 || k > seq.MaxK {
		return fmt.Errorf("minidx: k=%d outside [1,%d]", k, seq.MaxK)
	}
	if w < 1 {
		return fmt.Errorf("minidx: window w=%d must be >= 1", w)
	}
	return nil
}

// Extract appends the (k,w)-minimizers of s to dst and returns the
// extended slice, in strictly ascending position order.
//
// The scheme is the standard winnowing one: every window of w consecutive
// eligible k-mer start positions selects all positions attaining the
// minimum mixed hash of the window (keeping ties makes the selected set
// strand-symmetric: extracting the reverse complement yields the same
// hashes at mirrored positions with Rev flipped). K-mers overlapping an N
// are ineligible and break the run — windows never span them, matching
// the k-mer scanner in internal/seq.
//
// The implementation is minimap2's running-minimum sweep: a ring of the
// window's w k-mers, the window minimum and the last position holding
// it. A new k-mer that ties or beats the minimum is emitted at once and
// becomes its last holder; the ring is rescanned only when that holder
// leaves the window. ExtractNaive is the O(n·w) reference the
// differential tests and fuzzers compare against.
func Extract(dst []Minimizer, s seq.Seq, k, w int) []Minimizer {
	if err := ValidateKW(k, w); err != nil {
		panic(err)
	}
	if len(s) < k {
		return dst
	}
	var small [32]Minimizer // the ring when the window fits: no allocation
	var ring []Minimizer
	if w <= len(small) {
		ring = small[:w]
	} else {
		ring = make([]Minimizer, w)
	}
	mask := uint64(1)<<(2*k) - 1
	shift := uint(2 * (k - 1))
	var fwd, rc uint64
	run := 0 // consecutive eligible bases ending at i, capped at k+w
	bp := 0  // ring slot of the newest k-mer
	// minHash is the window minimum and minSlot the ring slot of the last
	// (newest) k-mer holding it; every holder in the window has been
	// emitted. When that holder leaves, every earlier window that held a
	// k-mer of the new window held it too, so no k-mer of the new window
	// above the old minimum was ever a window minimum: the holders a
	// rescan finds are all new, and emission stays in position order.
	var minHash uint64
	minSlot := 0
	for i := 0; i < len(s); i++ {
		if s.IsN(i) {
			run = 0
			fwd, rc = 0, 0
			continue
		}
		c := uint64(s.Code(i))
		fwd = (fwd<<2 | c) & mask
		rc = rc>>2 | (3^c)<<shift
		if run < k+w {
			run++
		}
		if run < k {
			continue
		}
		canon, rev := fwd, false
		if rc < fwd {
			canon, rev = rc, true
		}
		if bp++; bp == w {
			bp = 0
		}
		h := mix64(canon)
		ring[bp] = Minimizer{Hash: h, Pos: int32(i - k + 1), Rev: rev}
		switch {
		case run < k+w-1:
			// The run's first window is not complete yet.
		case run == k+w && h <= minHash:
			// A new minimum, or a tie with a holder still in the window.
			minHash, minSlot = h, bp
			dst = append(dst, ring[bp])
		case run == k+w-1 || minSlot == bp:
			// The run's first window, or the last holder just left it:
			// rescan, emitting in position order (ring[bp+1:], then
			// ring[:bp+1]).
			minHash = ring[0].Hash
			for _, e := range ring[1:] {
				minHash = min(minHash, e.Hash)
			}
			for j, e := range ring[bp+1:] {
				if e.Hash == minHash {
					dst, minSlot = append(dst, e), bp+1+j
				}
			}
			for j, e := range ring[:bp+1] {
				if e.Hash == minHash {
					dst, minSlot = append(dst, e), j
				}
			}
		}
	}
	return dst
}

// ExtractNaive is the quadratic reference implementation of Extract: it
// materializes every eligible k-mer, then scans each window of w
// consecutive eligible positions and marks all positions attaining the
// window minimum. It exists as the oracle for the differential property
// tests and fuzz targets; production callers use Extract.
func ExtractNaive(s seq.Seq, k, w int) []Minimizer {
	if err := ValidateKW(k, w); err != nil {
		panic(err)
	}
	codec := seq.MustKmerCodec(k)
	// runs of consecutive eligible k-mer start positions.
	type cand struct {
		hash uint64
		pos  int32
		rev  bool
	}
	var out []Minimizer
	var runs [][]cand
	var cur []cand
	for i := 0; i+k <= len(s); i++ {
		f, ok := codec.Encode(s, i)
		if !ok {
			if len(cur) > 0 {
				runs = append(runs, cur)
				cur = nil
			}
			continue
		}
		r := codec.RevComp(f)
		canon, rev := f, false
		if r < f {
			canon, rev = r, true
		}
		cur = append(cur, cand{hash: mix64(uint64(canon)), pos: int32(i), rev: rev})
	}
	if len(cur) > 0 {
		runs = append(runs, cur)
	}
	for _, run := range runs {
		picked := make([]bool, len(run))
		for lo := 0; lo+w <= len(run); lo++ {
			m := run[lo].hash
			for j := lo + 1; j < lo+w; j++ {
				if run[j].hash < m {
					m = run[j].hash
				}
			}
			for j := lo; j < lo+w; j++ {
				if run[j].hash == m {
					picked[j] = true
				}
			}
		}
		for j, p := range picked {
			if p {
				out = append(out, Minimizer{Hash: run[j].hash, Pos: run[j].pos, Rev: run[j].rev})
			}
		}
	}
	return out
}
