package seq

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	s, err := New("acgtNACGT")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if s.String() != "ACGTNACGT" {
		t.Fatalf("normalized = %q, want ACGTNACGT", s)
	}
	if _, err := New("ACGX"); err == nil {
		t.Fatal("New accepted invalid base X")
	}
}

func TestReverseComplement(t *testing.T) {
	s := MustNew("AACGTT")
	if got := s.Reverse().String(); got != "TTGCAA" {
		t.Errorf("Reverse = %q, want TTGCAA", got)
	}
	if got := s.RevComp().String(); got != "AACGTT" {
		t.Errorf("RevComp = %q, want AACGTT (palindrome)", got)
	}
	if got := MustNew("ACGTN").RevComp().String(); got != "NACGT" {
		t.Errorf("RevComp with N = %q, want NACGT", got)
	}
}

func TestReverseInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint8) bool {
		s := RandSeq(rng, int(n))
		return bytes.Equal(s.Reverse().Reverse(), s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRevCompInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(n uint8) bool {
		s := RandSeq(rng, int(n))
		return bytes.Equal(s.RevComp().RevComp(), s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodeRoundTrip(t *testing.T) {
	s := MustNew("ACGT")
	for i := 0; i < 4; i++ {
		if got := s.Code(i); got != byte(i) {
			t.Errorf("Code(%d) = %d, want %d", i, got, i)
		}
	}
	n := MustNew("N")
	if !n.IsN(0) {
		t.Error("IsN(N) = false")
	}
	if n.Code(0) != BaseA {
		t.Error("Code(N) should fall back to BaseA")
	}
}

func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 3, 4, 5, 63, 64, 65, 1000} {
		s := RandSeq(rng, n)
		p := PackLossy(s)
		if p.Len() != n {
			t.Fatalf("packed len = %d, want %d", p.Len(), n)
		}
		if got := p.Unpack(); !bytes.Equal(got, s) {
			t.Fatalf("round trip mismatch at n=%d", n)
		}
	}
}

func TestPackLossyMapsN(t *testing.T) {
	p := PackLossy(MustNew("ANA"))
	if got := p.Unpack().String(); got != "AAA" {
		t.Fatalf("PackLossy N mapping = %q, want AAA", got)
	}
}

func TestPackedCodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Code out of range did not panic")
		}
	}()
	p := PackLossy(MustNew("ACG"))
	p.Code(3)
}

func TestKmerCodecEncodeDecode(t *testing.T) {
	c := MustKmerCodec(5)
	s := MustNew("ACGTACGTA")
	km, ok := c.Encode(s, 0)
	if !ok {
		t.Fatal("Encode failed on clean window")
	}
	if got := c.Decode(km).String(); got != "ACGTA" {
		t.Fatalf("Decode = %q, want ACGTA", got)
	}
	if _, ok := c.Encode(s, 4); !ok {
		t.Fatal("Encode failed at valid offset 4")
	}
	if _, ok := c.Encode(s, 5); ok {
		t.Fatal("Encode accepted out-of-range window")
	}
	if _, ok := c.Encode(MustNew("ACGNT"), 0); ok {
		t.Fatal("Encode accepted window containing N")
	}
}

func TestKmerCodecBounds(t *testing.T) {
	if _, err := NewKmerCodec(0); err == nil {
		t.Error("NewKmerCodec(0) accepted")
	}
	if _, err := NewKmerCodec(MaxK + 1); err == nil {
		t.Error("NewKmerCodec(32) accepted")
	}
	if _, err := NewKmerCodec(MaxK); err != nil {
		t.Errorf("NewKmerCodec(31): %v", err)
	}
}

func TestKmerRevCompInvolution(t *testing.T) {
	c := MustKmerCodec(11)
	f := func(raw uint64) bool {
		km := Kmer(raw) & ((1 << 22) - 1)
		return c.RevComp(c.RevComp(km)) == km
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKmerCanonicalStrandInvariance(t *testing.T) {
	c := MustKmerCodec(9)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		s := RandSeq(rng, 9)
		km, _ := c.Encode(s, 0)
		rc, _ := c.Encode(s.RevComp(), 0)
		if c.Canonical(km) != c.Canonical(rc) {
			t.Fatalf("canonical differs between strands for %s", s)
		}
	}
}

func TestKmerScanMatchesNaive(t *testing.T) {
	c := MustKmerCodec(7)
	rng := rand.New(rand.NewSource(6))
	s := RandSeq(rng, 300)
	s[40] = 'N' // force a restart
	s[41] = 'N'
	got := c.Scan(nil, s, false)
	var want []Positioned
	for i := 0; i+c.K <= len(s); i++ {
		if km, ok := c.Encode(s, i); ok {
			want = append(want, Positioned{Kmer: km, Pos: i, Rev: c.RevComp(km) < km})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Scan produced %d k-mers, naive %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Scan[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestKmerScanShortSeq(t *testing.T) {
	c := MustKmerCodec(9)
	if out := c.Scan(nil, MustNew("ACGT"), true); len(out) != 0 {
		t.Fatalf("Scan on short sequence returned %d k-mers", len(out))
	}
}

func TestMutateRate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := RandSeq(rng, 200000)
	m := Mutate(rng, s, UniformProfile(0.15))
	id := Identity(s, m)
	// With 15% errors including indels, prefix identity collapses, but
	// length should stay within a few percent (ins and del balance).
	ratio := float64(len(m)) / float64(len(s))
	if ratio < 0.93 || ratio > 1.07 {
		t.Fatalf("mutated length ratio %.3f outside [0.93,1.07]", ratio)
	}
	if id > 0.9 {
		t.Fatalf("identity %.3f too high for 15%% error channel", id)
	}
	if got := Mutate(rng, s, ErrorProfile{}); !bytes.Equal(got, s) {
		t.Fatal("zero-rate Mutate altered the sequence")
	}
}

func TestRandPairSet(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pairs := RandPairSet(rng, PairSetOptions{N: 50, MinLen: 100, MaxLen: 200, ErrorRate: 0.15, SeedLen: 17})
	if len(pairs) != 50 {
		t.Fatalf("got %d pairs, want 50", len(pairs))
	}
	for _, p := range pairs {
		if len(p.Query) < 100 || len(p.Query) > 200 {
			t.Fatalf("query length %d outside range", len(p.Query))
		}
		if p.SeedQPos+17 > len(p.Query) || p.SeedTPos+17 > len(p.Target) {
			t.Fatalf("seed outside sequence: %+v", p)
		}
		if !bytes.Equal(p.Query[p.SeedQPos:p.SeedQPos+17], p.Target[p.SeedTPos:p.SeedTPos+17]) {
			t.Fatal("planted seed does not match between pair members")
		}
	}
}

func TestFastaRoundTrip(t *testing.T) {
	recs := []Record{
		{Name: "read1", Seq: MustNew("ACGTACGTACGT")},
		{Name: "read2", Seq: MustNew("GGGGCCCCNNNA")},
	}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFasta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "read1" || !bytes.Equal(got[1].Seq, recs[1].Seq) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestFastaErrors(t *testing.T) {
	if _, err := ReadFasta(strings.NewReader("ACGT\n")); err == nil {
		t.Error("ReadFasta accepted data before header")
	}
	if _, err := ReadFasta(strings.NewReader(">r\nAC!T\n")); err == nil {
		t.Error("ReadFasta accepted invalid base")
	}
}

func TestIdentity(t *testing.T) {
	a, b := MustNew("AAAA"), MustNew("AATT")
	if got := Identity(a, b); got != 0.5 {
		t.Errorf("Identity = %v, want 0.5", got)
	}
	if got := Identity(nil, nil); got != 0 {
		t.Errorf("Identity(nil) = %v, want 0", got)
	}
}

func TestFormatWrap(t *testing.T) {
	s := MustNew("ACGTACGTAC")
	if got := Format(s, 4); got != "ACGT\nACGT\nAC\n" {
		t.Fatalf("Format = %q", got)
	}
	if got := Format(s, 0); got != s.String() {
		t.Fatalf("Format(width=0) = %q", got)
	}
}

func TestFromBytesZeroCopy(t *testing.T) {
	b := []byte("ACGTNACGT")
	s, err := FromBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if &s[0] != &b[0] {
		t.Fatal("canonical input was copied")
	}
	if s.String() != "ACGTNACGT" {
		t.Fatalf("FromBytes = %q", s)
	}
}

func TestFromBytesNormalizesCopy(t *testing.T) {
	b := []byte("ACgtnACGT")
	s, err := FromBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != "ACGTNACGT" {
		t.Fatalf("FromBytes = %q", s)
	}
	if &s[0] == &b[0] {
		t.Fatal("normalized result aliases the input")
	}
	if string(b) != "ACgtnACGT" {
		t.Fatalf("input mutated to %q", b)
	}
}

func TestFromBytesRejectsBadBase(t *testing.T) {
	for _, in := range []string{"ACGX", "acg!", "AC GT"} {
		if _, err := FromBytes([]byte(in)); err == nil {
			t.Errorf("FromBytes(%q) accepted invalid base", in)
		}
	}
}

func TestFromBytesMatchesNew(t *testing.T) {
	for _, in := range []string{"", "A", "acgtn", "ACGTacgtNn"} {
		want, werr := New(in)
		got, gerr := FromBytes([]byte(in))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("FromBytes(%q) err = %v, New err = %v", in, gerr, werr)
		}
		if werr == nil && got.String() != want.String() {
			t.Fatalf("FromBytes(%q) = %q, New = %q", in, got, want)
		}
	}
}
