// Package simd holds the two data-parallel building blocks the 8-lane
// int16 X-drop row kernel (internal/xdrop) is written in, in portable Go:
// a SWAR byte compare that yields one bit per lane, and a blend table that
// turns that bit mask into a vector of match/mismatch scores. Lanes is the
// vector width both it and the ksw2 baseline's cost model count in.
package simd

// Lanes is the number of int16 lanes per vector (128-bit SSE2 register).
const Lanes = 8

// I16x8 is a 128-bit vector of eight int16 lanes.
type I16x8 [Lanes]int16

// SWAR constants of EqMask64: per-byte low bits, per-byte high bits, and
// the movemask gather multiplier that collects the eight per-byte high
// bits into the top byte of a 64-bit product.
const (
	swarLow7   uint64 = 0x7f7f7f7f7f7f7f7f
	swarHigh   uint64 = 0x8080808080808080
	swarGather uint64 = 0x0002040810204081
)

// EqMask64 compares 8 byte lanes at once: a and b each pack 8 bytes
// little-endian, and the result has bit l set where lane l is equal — the
// _mm_cmpeq_epi8 + _mm_movemask_epi8 pair of the SSE2 kernel, emulated as
// one SWAR pass over a 64-bit word instead of eight byte compares.
//
// The zero-byte detection is exact for arbitrary byte values: after
// x = a XOR b, a byte of x is non-zero iff its low 7 bits carry into 0x80
// under +0x7F or its own high bit is set, and neither term can carry
// across byte lanes.
func EqMask64(a, b uint64) uint8 {
	x := a ^ b
	nz := ((x & swarLow7) + swarLow7) | x // 0x80 bit set per non-zero byte
	return uint8(((^nz & swarHigh) * swarGather) >> 56)
}

// BlendTable is a compare-blend specialized at batch-prep time: entry m is
// the I16x8 whose lane l holds `on` when bit l of m is set and `off`
// otherwise. Indexing it with an EqMask64 result replaces a per-lane
// compare + blend pair with one 16-byte table load,
// the partial-evaluation trick (AnySeq-style) the vector X-drop kernel
// uses to turn match/mismatch scoring into data.
type BlendTable [256]I16x8

// NewBlendTable builds the 4 KiB blend table for one (on, off) pair.
func NewBlendTable(on, off int16) *BlendTable {
	var t BlendTable
	for m := range t {
		for l := 0; l < Lanes; l++ {
			if m>>uint(l)&1 != 0 {
				t[m][l] = on
			} else {
				t[m][l] = off
			}
		}
	}
	return &t
}
