package seq

import "fmt"

// MaxK is the largest k-mer length representable in a uint64 (2 bits/base).
const MaxK = 31

// Kmer is a 2-bit-encoded k-mer. The base at offset 0 occupies the most
// significant used bits, so lexicographic order of the string equals numeric
// order of the code for a fixed k.
type Kmer uint64

// KmerCodec encodes and decodes k-mers of a fixed length.
type KmerCodec struct {
	K    int
	mask Kmer
}

// NewKmerCodec returns a codec for k-mers of length k, 1 <= k <= MaxK.
func NewKmerCodec(k int) (KmerCodec, error) {
	if k < 1 || k > MaxK {
		return KmerCodec{}, fmt.Errorf("seq: k-mer length %d outside [1,%d]", k, MaxK)
	}
	return KmerCodec{K: k, mask: (1 << uint(2*k)) - 1}, nil
}

// MustKmerCodec is NewKmerCodec that panics on error.
func MustKmerCodec(k int) KmerCodec {
	c, err := NewKmerCodec(k)
	if err != nil {
		panic(err)
	}
	return c
}

// Encode packs s[pos:pos+K] into a Kmer. The second return is false if the
// window contains an N or overruns the sequence.
func (c KmerCodec) Encode(s Seq, pos int) (Kmer, bool) {
	if pos < 0 || pos+c.K > len(s) {
		return 0, false
	}
	var km Kmer
	for i := 0; i < c.K; i++ {
		if s.IsN(pos + i) {
			return 0, false
		}
		km = km<<2 | Kmer(s.Code(pos+i))
	}
	return km, true
}

// Decode expands km into its string form.
func (c KmerCodec) Decode(km Kmer) Seq {
	out := make(Seq, c.K)
	for i := c.K - 1; i >= 0; i-- {
		out[i] = Alphabet[km&3]
		km >>= 2
	}
	return out
}

// RevComp returns the reverse complement of km under this codec.
func (c KmerCodec) RevComp(km Kmer) Kmer {
	var rc Kmer
	for i := 0; i < c.K; i++ {
		rc = rc<<2 | ((km & 3) ^ 3) // complement of 2-bit code is XOR 3
		km >>= 2
	}
	return rc & c.mask
}

// Canonical returns min(km, revcomp(km)), the strand-independent form used
// by BELLA's k-mer counting.
func (c KmerCodec) Canonical(km Kmer) Kmer {
	rc := c.RevComp(km)
	if rc < km {
		return rc
	}
	return km
}

// Positioned is a k-mer occurrence within a read. Rev reports that the
// reverse complement of the window is numerically smaller than its forward
// code, i.e. that the canonical form is the reverse-complemented one.
type Positioned struct {
	Kmer Kmer
	Pos  int
	Rev  bool
}

// Scan appends to dst every valid k-mer of s with its position, using the
// canonical form if canonical is true, and returns the extended slice.
// Windows containing N are skipped, matching BELLA's parser.
//
// Both strands roll: each base shifts into the low end of the forward code
// and its complement into the high end of the reverse-complement code, so
// the canonical form costs O(1) per base rather than an O(k) RevComp.
func (c KmerCodec) Scan(dst []Positioned, s Seq, canonical bool) []Positioned {
	if len(s) < c.K {
		return dst
	}
	top := uint(2 * (c.K - 1)) // bit offset of the first base of a window
	var fw, rc Kmer
	run := 0 // valid bases accumulated in the current window
	for i := 0; i < len(s); i++ {
		code := encode[s[i]]
		if code >= 4 { // N restarts the window
			run = 0
			continue
		}
		fw = (fw<<2 | Kmer(code)) & c.mask
		rc = rc>>2 | Kmer(code^3)<<top
		if run < c.K {
			run++
		}
		if run == c.K {
			p := Positioned{Kmer: fw, Pos: i - c.K + 1, Rev: rc < fw}
			if canonical && p.Rev {
				p.Kmer = rc
			}
			dst = append(dst, p)
		}
	}
	return dst
}
