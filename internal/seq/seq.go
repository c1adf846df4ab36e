// Package seq provides the DNA sequence toolkit used throughout LOGAN-Go:
// byte and 2-bit packed sequence representations, reverse and
// reverse-complement transforms, k-mer encoding, FASTA I/O, random
// sequence generation and sequencing-error channels.
//
// The alphabet is the DNA alphabet {A, C, G, T} plus the ambiguity
// character N. Internally bases are stored either as ASCII bytes (Seq) or
// packed two bits per base (Packed); the packed form is what the simulated
// GPU kernels consume, mirroring LOGAN's device-side layout.
package seq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Base codes in the 2-bit alphabet.
const (
	BaseA = 0
	BaseC = 1
	BaseG = 2
	BaseT = 3
)

// Alphabet is the canonical DNA alphabet in code order.
const Alphabet = "ACGT"

// ErrBadBase reports a character outside the {A,C,G,T,N} alphabet.
var ErrBadBase = errors.New("seq: invalid base character")

// Seq is a DNA sequence stored as upper-case ASCII bytes.
type Seq []byte

// encode maps ASCII to 2-bit code; 0xFF marks invalid, 0xFE marks N.
var encode [256]byte

// complementTab maps an ASCII base to its complement.
var complementTab [256]byte

// canonical marks the bytes a normalized Seq may contain (upper-case
// ACGTN), the fast path of FromBytes.
var canonical [256]bool

func init() {
	for i := range encode {
		encode[i] = 0xFF
	}
	set := func(b byte, code byte) {
		encode[b] = code
		encode[b|0x20] = code // lower case
	}
	set('A', BaseA)
	set('C', BaseC)
	set('G', BaseG)
	set('T', BaseT)
	encode['N'] = 0xFE
	encode['n'] = 0xFE
	for _, c := range []byte("ACGTN") {
		canonical[c] = true
	}

	for i := range complementTab {
		complementTab[i] = 'N'
	}
	complementTab['A'], complementTab['a'] = 'T', 'T'
	complementTab['C'], complementTab['c'] = 'G', 'G'
	complementTab['G'], complementTab['g'] = 'C', 'C'
	complementTab['T'], complementTab['t'] = 'A', 'A'
}

// New validates and normalizes s into a Seq (upper-case, ACGTN only).
func New(s string) (Seq, error) {
	out := make(Seq, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		code := encode[c]
		if code == 0xFF {
			return nil, fmt.Errorf("%w: %q at offset %d", ErrBadBase, c, i)
		}
		if code == 0xFE {
			out[i] = 'N'
		} else {
			out[i] = Alphabet[code]
		}
	}
	return out, nil
}

// FromBytes validates b and returns it as a Seq without copying when every
// base is already canonical (upper-case ACGTN): the returned Seq aliases b,
// and the caller must not mutate b while the Seq is in use. Inputs holding
// lower-case bases are normalized into a fresh copy, so FromBytes never
// mutates b. This is the zero-copy ingestion path of the batch engine,
// which would otherwise copy every sequence twice per call.
func FromBytes(b []byte) (Seq, error) {
	for i := 0; i < len(b); i++ {
		c := b[i]
		if canonical[c] {
			continue
		}
		code := encode[c]
		if code == 0xFF {
			return nil, fmt.Errorf("%w: %q at offset %d", ErrBadBase, c, i)
		}
		// Lower-case tail: fall back to the normalizing copy. The prefix
		// b[:i] is already canonical.
		out := make(Seq, len(b))
		copy(out, b[:i])
		for ; i < len(b); i++ {
			code := encode[b[i]]
			switch {
			case code == 0xFF:
				return nil, fmt.Errorf("%w: %q at offset %d", ErrBadBase, b[i], i)
			case code == 0xFE:
				out[i] = 'N'
			default:
				out[i] = Alphabet[code]
			}
		}
		return out, nil
	}
	return Seq(b), nil
}

// MustNew is New that panics on invalid input; for tests and literals.
func MustNew(s string) Seq {
	q, err := New(s)
	if err != nil {
		panic(err)
	}
	return q
}

// Len returns the number of bases.
func (s Seq) Len() int { return len(s) }

// String returns the sequence as a plain string.
func (s Seq) String() string { return string(s) }

// Clone returns a deep copy of s.
func (s Seq) Clone() Seq {
	out := make(Seq, len(s))
	copy(out, s)
	return out
}

// Code returns the 2-bit code of the base at position i.
// N maps to BaseA; callers that must distinguish N should test IsN first.
func (s Seq) Code(i int) byte {
	c := encode[s[i]]
	if c >= 4 {
		return BaseA
	}
	return c
}

// IsN reports whether position i holds the ambiguity character.
func (s Seq) IsN(i int) bool { return encode[s[i]] == 0xFE }

// Reverse returns the sequence with base order reversed (no complement).
// LOGAN reverses the query of the left extension so that both extensions
// stream memory in the forward direction (paper Fig. 6).
func (s Seq) Reverse() Seq {
	out := make(Seq, len(s))
	for i, c := range s {
		out[len(s)-1-i] = c
	}
	return out
}

// RevComp returns the reverse complement of s.
func (s Seq) RevComp() Seq {
	out := make(Seq, len(s))
	for i, c := range s {
		out[len(s)-1-i] = complementTab[c]
	}
	return out
}

// Sub returns the subsequence [lo, hi). It panics if the range is invalid,
// matching Go slice semantics.
func (s Seq) Sub(lo, hi int) Seq { return s[lo:hi:hi] }

// AppendReverse appends s to dst in reverse base order (no complement):
// the Fig. 6 staging reversal, shared by the CPU workspace and the GPU
// host pipeline so neither allocates an intermediate sequence.
func AppendReverse(dst, s []byte) []byte {
	n := len(s)
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	// Eight bases at a time: a word read little-endian and written
	// big-endian comes out byte-reversed.
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.BigEndian.PutUint64(out[n-8-i:], binary.LittleEndian.Uint64(s[i:]))
	}
	for ; i < n; i++ {
		out[n-1-i] = s[i]
	}
	return dst[:len(dst)+n]
}

// Identity returns the fraction of equal bases at equal offsets of a and b
// over the shorter length. It is a cheap similarity proxy used by tests.
func Identity(a, b Seq) float64 {
	n := min(len(a), len(b))
	if n == 0 {
		return 0
	}
	same := 0
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(n)
}

// Format wraps s into lines of the given width, FASTA style.
func Format(s Seq, width int) string {
	if width <= 0 {
		return string(s)
	}
	var b strings.Builder
	for i := 0; i < len(s); i += width {
		end := min(i+width, len(s))
		b.Write(s[i:end])
		b.WriteByte('\n')
	}
	return b.String()
}
