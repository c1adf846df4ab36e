package seq

import "fmt"

// Packed is a 2-bit-per-base DNA sequence, the device-side representation
// consumed by the simulated GPU kernels. Four bases pack into one byte,
// little-endian within the byte: base i occupies bits (2*(i%4)) of word[i/4].
//
// N bases are not representable; PackLossy maps them to A (the same policy
// LOGAN's device buffers apply when the host uploads reads).
type Packed struct {
	words []byte
	n     int
}

// PackLossy converts s into a Packed sequence mapping N to A.
func PackLossy(s Seq) Packed {
	p := Packed{words: make([]byte, (len(s)+3)/4), n: len(s)}
	for i := 0; i < len(s); i++ {
		p.words[i/4] |= s.Code(i) << uint(2*(i%4))
	}
	return p
}

// Len returns the number of bases.
func (p Packed) Len() int { return p.n }

// Bytes returns the backing byte slice (len = ceil(n/4)). The slice is the
// live storage; callers must not mutate it unless they own p.
func (p Packed) Bytes() []byte { return p.words }

// Code returns the 2-bit code of base i.
func (p Packed) Code(i int) byte {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("seq: packed index %d out of range [0,%d)", i, p.n))
	}
	return (p.words[i/4] >> uint(2*(i%4))) & 3
}

// Unpack converts back into an ASCII Seq.
func (p Packed) Unpack() Seq {
	out := make(Seq, p.n)
	for i := 0; i < p.n; i++ {
		out[i] = Alphabet[p.Code(i)]
	}
	return out
}
