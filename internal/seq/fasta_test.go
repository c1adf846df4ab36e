package seq

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

func TestFastaReaderStreams(t *testing.T) {
	in := ">r1 extra tokens\nacgt\nACGT\n\n>r2\nNNNN\n>r3\nTTTT"
	fr := NewFastaReader(strings.NewReader(in))
	want := []Record{
		{Name: "r1", Seq: MustNew("ACGTACGT")},
		{Name: "r2", Seq: MustNew("NNNN")},
		{Name: "r3", Seq: MustNew("TTTT")},
	}
	for i, w := range want {
		rec, err := fr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Name != w.Name || rec.Seq.String() != w.Seq.String() {
			t.Fatalf("record %d: got %q/%q, want %q/%q", i, rec.Name, rec.Seq, w.Name, w.Seq)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last record: err = %v, want io.EOF", err)
	}
	// EOF is sticky.
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("repeated Next: err = %v, want io.EOF", err)
	}
}

func TestFastaReaderCRLFAndLongLines(t *testing.T) {
	// One sequence line far beyond bufio.Scanner's default token size
	// would break a Scanner-based parser; the streaming reader must not
	// care.
	long := strings.Repeat("ACGT", 1<<18) // 1 MiB line
	in := ">a\r\n" + long + "\r\n>b\r\nACGT\r\n"
	fr := NewFastaReader(strings.NewReader(in))
	rec, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != "a" || len(rec.Seq) != len(long) {
		t.Fatalf("got %q len %d, want a len %d", rec.Name, len(rec.Seq), len(long))
	}
	rec, err = fr.Next()
	if err != nil || rec.Name != "b" || rec.Seq.String() != "ACGT" {
		t.Fatalf("second record %q/%q err %v", rec.Name, rec.Seq, err)
	}
}

func TestFastaReaderErrors(t *testing.T) {
	if _, err := NewFastaReader(strings.NewReader("ACGT\n")).Next(); err == nil || err == io.EOF {
		t.Error("data before header not rejected")
	}
	fr := NewFastaReader(strings.NewReader(">r\nAC!T\n"))
	if _, err := fr.Next(); err == nil || !errors.Is(err, ErrBadBase) {
		t.Errorf("invalid base: err = %v, want ErrBadBase", err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Error("reader not terminal after a parse error")
	}

	// A mid-record transport error must surface, not silently truncate
	// the record.
	broken := io.MultiReader(strings.NewReader(">r\nACGT\n"), iotest.ErrReader(errors.New("boom")))
	fr = NewFastaReader(broken)
	if _, err := fr.Next(); err == nil || err == io.EOF {
		t.Errorf("transport error: err = %v, want boom", err)
	}
}

func TestFastaReaderBaseNormalization(t *testing.T) {
	// The overlap and mapping paths both ingest through FastaReader; this
	// table pins the shared acceptance rules: case-insensitive ACGT, U→T,
	// N and IUPAC ambiguity codes →N, everything else ErrBadBase.
	cases := []struct {
		name string
		in   string
		want string // "" with bad=true means ErrBadBase
		bad  bool
	}{
		{"upper", "ACGT", "ACGT", false},
		{"lower", "acgt", "ACGT", false},
		{"mixed case", "AcGtNn", "ACGTNN", false},
		{"uracil", "ACGU", "ACGT", false},
		{"uracil lower", "acgu", "ACGT", false},
		{"iupac upper", "RYSWKMBDHV", "NNNNNNNNNN", false},
		{"iupac lower", "ryswkmbdhv", "NNNNNNNNNN", false},
		{"iupac embedded", "ACGTRACGTY", "ACGTNACGTN", false},
		{"digit", "ACG1T", "", true},
		{"gap dash", "ACG-T", "", true},
		{"asterisk", "ACGT*", "", true},
		{"interior space rejected", "AC GT", "", true},
		{"punctuation", "AC.GT", "", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fr := NewFastaReader(strings.NewReader(">r\n" + c.in + "\n"))
			rec, err := fr.Next()
			if c.bad {
				if err == nil || !errors.Is(err, ErrBadBase) {
					t.Fatalf("input %q: err = %v, want ErrBadBase", c.in, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("input %q: %v", c.in, err)
			}
			if rec.Seq.String() != c.want {
				t.Fatalf("input %q normalized to %q, want %q", c.in, rec.Seq, c.want)
			}
			// The normalized output must be canonical for every downstream
			// consumer (zero-copy FromBytes, k-mer scan, packing).
			if _, err := FromBytes(rec.Seq); err != nil {
				t.Fatalf("normalized output %q not canonical: %v", rec.Seq, err)
			}
		})
	}
}

func TestFastaReaderEmptyInput(t *testing.T) {
	if _, err := NewFastaReader(strings.NewReader("")).Next(); err != io.EOF {
		t.Errorf("empty input: err = %v, want io.EOF", err)
	}
	// Header-only record parses as an empty sequence.
	fr := NewFastaReader(strings.NewReader(">only\n"))
	rec, err := fr.Next()
	if err != nil || rec.Name != "only" || len(rec.Seq) != 0 {
		t.Errorf("header-only: %q/%q err %v", rec.Name, rec.Seq, err)
	}
}
