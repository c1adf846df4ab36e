package seq

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadFasta: the parser must never panic and must round-trip whatever
// it accepts.
func FuzzReadFasta(f *testing.F) {
	f.Add(">r1\nACGT\n>r2\nGGTT\n")
	f.Add(">\n\n")
	f.Add("no header")
	f.Add(">r\nACGTN\nacgtn\n")
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := ReadFasta(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFasta(&buf, recs); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		again, err := ReadFasta(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip %d != %d records", len(again), len(recs))
		}
		for i := range recs {
			if !bytes.Equal(again[i].Seq, recs[i].Seq) {
				t.Fatalf("record %d sequence changed", i)
			}
		}
	})
}

// FuzzReadPairs: the pair-file parser must never panic, and accepted
// pairs must have valid seed geometry.
func FuzzReadPairs(f *testing.F) {
	f.Add("ACGT\tACGT\t0\t0\t4\n")
	f.Add("# comment\nACGT\tTTTT\t1\t1\t2\n")
	f.Add("A\tB\tC\n")
	f.Fuzz(func(t *testing.T, in string) {
		pairs, err := ReadPairs(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, p := range pairs {
			if p.SeedQPos < 0 || p.SeedQPos+p.SeedLen > len(p.Query) {
				t.Fatalf("accepted invalid query seed: %+v", p)
			}
			if p.SeedTPos < 0 || p.SeedTPos+p.SeedLen > len(p.Target) {
				t.Fatalf("accepted invalid target seed: %+v", p)
			}
		}
	})
}

// FuzzKmerScan: the rolling two-strand scan must agree with per-position
// encoding and the O(k) RevComp/Canonical for any byte input that validates.
func FuzzKmerScan(f *testing.F) {
	f.Add([]byte("ACGTACGTNNACGT"), 5)
	f.Add([]byte("AAAA"), 2)
	f.Fuzz(func(t *testing.T, raw []byte, k int) {
		if k < 1 || k > MaxK || len(raw) > 500 {
			return
		}
		s, err := New(string(raw))
		if err != nil {
			return
		}
		c := MustKmerCodec(k)
		scan, canon := c.Scan(nil, s, false), c.Scan(nil, s, true)
		var naive []Positioned
		for i := 0; i+k <= len(s); i++ {
			if km, ok := c.Encode(s, i); ok {
				naive = append(naive, Positioned{Kmer: km, Pos: i, Rev: c.RevComp(km) < km})
			}
		}
		if len(scan) != len(naive) || len(canon) != len(naive) {
			t.Fatalf("scan %d / canonical scan %d k-mers, naive %d", len(scan), len(canon), len(naive))
		}
		for i, want := range naive {
			if scan[i] != want {
				t.Fatalf("k-mer %d: scan %+v, naive %+v", i, scan[i], want)
			}
			want.Kmer = c.Canonical(want.Kmer)
			if canon[i] != want {
				t.Fatalf("k-mer %d: canonical scan %+v, naive %+v", i, canon[i], want)
			}
		}
	})
}
