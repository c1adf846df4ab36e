package simd

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestEqMask64MatchesByteCompare holds the SWAR compare to the obvious
// per-byte loop, on random words and on words that differ only in a high
// or a low bit of single lanes (the carry cases the SWAR must not smear).
func TestEqMask64MatchesByteCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(a, b [8]byte) {
		var want uint8
		for l := range a {
			if a[l] == b[l] {
				want |= 1 << l
			}
		}
		got := EqMask64(binary.LittleEndian.Uint64(a[:]), binary.LittleEndian.Uint64(b[:]))
		if got != want {
			t.Fatalf("EqMask64(%v, %v) = %08b, want %08b", a, b, got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		var a, b [8]byte
		for l := range a {
			a[l] = "ACGTN"[rng.Intn(5)]
			b[l] = a[l]
			switch rng.Intn(4) {
			case 0:
				b[l] = byte(rng.Intn(256))
			case 1:
				b[l] ^= 0x80
			case 2:
				b[l] ^= 0x01
			}
		}
		check(a, b)
	}
}

func TestBlendTable(t *testing.T) {
	tab := NewBlendTable(5, -3)
	for m := range tab {
		for l := 0; l < Lanes; l++ {
			want := int16(-3)
			if m>>l&1 != 0 {
				want = 5
			}
			if tab[m][l] != want {
				t.Fatalf("entry %08b lane %d = %d, want %d", m, l, tab[m][l], want)
			}
		}
	}
}
