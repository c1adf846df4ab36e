package minidx

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"logan/internal/seq"
)

// randomSeq builds a random sequence over ACGT with nFrac chance of N per
// base.
func randomSeq(rng *rand.Rand, n int, nFrac float64) seq.Seq {
	s := make(seq.Seq, n)
	for i := range s {
		if rng.Float64() < nFrac {
			s[i] = 'N'
		} else {
			s[i] = seq.Alphabet[rng.Intn(4)]
		}
	}
	return s
}

// eligibleRuns returns maximal runs of k-mer start positions whose
// windows contain no N, mirroring the eligibility rule of Extract.
func eligibleRuns(s seq.Seq, k int) [][]int32 {
	codec := seq.MustKmerCodec(k)
	var runs [][]int32
	var cur []int32
	for i := 0; i+k <= len(s); i++ {
		if _, ok := codec.Encode(s, i); !ok {
			if len(cur) > 0 {
				runs = append(runs, cur)
				cur = nil
			}
			continue
		}
		cur = append(cur, int32(i))
	}
	if len(cur) > 0 {
		runs = append(runs, cur)
	}
	return runs
}

func checkMinimizers(t *testing.T, s seq.Seq, k, w int) {
	t.Helper()
	got := Extract(nil, s, k, w)
	want := ExtractNaive(s, k, w)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("k=%d w=%d seq=%s:\nExtract      = %+v\nExtractNaive = %+v", k, w, s, got, want)
	}
	// Ascending, unique positions.
	for i := 1; i < len(got); i++ {
		if got[i].Pos <= got[i-1].Pos {
			t.Fatalf("positions not strictly ascending at %d: %+v", i, got)
		}
	}
	// Window invariance: every window of w consecutive eligible k-mer
	// positions contains at least one selected minimizer.
	sel := map[int32]bool{}
	for _, m := range got {
		sel[m.Pos] = true
	}
	for _, run := range eligibleRuns(s, k) {
		for lo := 0; lo+w <= len(run); lo++ {
			ok := false
			for j := lo; j < lo+w; j++ {
				if sel[run[j]] {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("k=%d w=%d: window starting at %d has no minimizer (seq=%s)", k, w, run[lo], s)
			}
		}
	}
	checkRevCompCanonicality(t, s, k, w, got)
}

// checkRevCompCanonicality asserts that extracting the reverse complement
// yields the same hashes at mirrored positions with the strand bit
// flipped (unchanged for palindromic k-mers).
func checkRevCompCanonicality(t *testing.T, s seq.Seq, k, w int, fwd []Minimizer) {
	t.Helper()
	codec := seq.MustKmerCodec(k)
	want := make([]Minimizer, 0, len(fwd))
	for i := len(fwd) - 1; i >= 0; i-- {
		m := fwd[i]
		km, ok := codec.Encode(s, int(m.Pos))
		if !ok {
			t.Fatalf("minimizer at ineligible position %d", m.Pos)
		}
		rev := !m.Rev
		if codec.RevComp(km) == km { // palindromic: canonical on both strands
			rev = false
		}
		want = append(want, Minimizer{Hash: m.Hash, Pos: int32(len(s)-k) - m.Pos, Rev: rev})
	}
	got := Extract(nil, s.RevComp(), k, w)
	if len(got) != len(want) {
		t.Fatalf("k=%d w=%d seq=%s:\nrevcomp Extract = %+v\nmirrored fwd    = %+v", k, w, s, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("k=%d w=%d seq=%s: revcomp minimizer %d = %+v, want %+v", k, w, s, i, got[i], want[i])
		}
	}
}

func TestExtractMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ k, w int }{{3, 1}, {3, 4}, {5, 5}, {15, 10}, {31, 3}, {11, 16}, {15, 33}, {5, 64}}
	for _, c := range cases {
		for trial := 0; trial < 30; trial++ {
			n := rng.Intn(400)
			nFrac := 0.0
			if trial%3 == 1 {
				nFrac = 0.05
			}
			checkMinimizers(t, randomSeq(rng, n, nFrac), c.k, c.w)
		}
	}
}

func TestExtractLowComplexityTies(t *testing.T) {
	// Homopolymers and dinucleotide repeats force massive hash ties; every
	// tied window position must be selected on both strands.
	for _, str := range []string{
		"AAAAAAAAAAAAAAAAAAAAAAAA",
		"ACACACACACACACACACACACAC",
		"ATATATATATATATATATATATAT", // palindromic 2-mers under revcomp
		"GGGGGGGCCCCCCCGGGGGGG",
	} {
		for _, kw := range []struct{ k, w int }{{4, 3}, {5, 7}, {2, 2}} {
			checkMinimizers(t, seq.MustNew(str), kw.k, kw.w)
		}
	}
}

func TestExtractShortAndEdgeInputs(t *testing.T) {
	if got := Extract(nil, seq.MustNew("ACG"), 5, 3); len(got) != 0 {
		t.Fatalf("sequence shorter than k produced %v", got)
	}
	if got := Extract(nil, seq.MustNew("ACGNACG"), 4, 2); len(got) != 0 {
		t.Fatalf("all windows N-broken still produced %v", got)
	}
	// Exactly one full window.
	s := seq.MustNew("ACGTAC")
	got := Extract(nil, s, 3, 4)
	if len(got) == 0 {
		t.Fatal("single complete window selected nothing")
	}
	checkMinimizers(t, s, 3, 4)
}

func TestValidateKW(t *testing.T) {
	for _, bad := range []struct{ k, w int }{{0, 1}, {32, 1}, {5, 0}, {-1, 3}} {
		if err := ValidateKW(bad.k, bad.w); err == nil {
			t.Errorf("ValidateKW(%d,%d) accepted invalid parameters", bad.k, bad.w)
		}
	}
	if err := ValidateKW(15, 10); err != nil {
		t.Fatalf("ValidateKW(15,10): %v", err)
	}
}

func TestPackPosRoundTrip(t *testing.T) {
	cases := []struct {
		ref, pos int32
		rev      bool
	}{{0, 0, false}, {1, 2, true}, {1<<31 - 1, 1<<31 - 1, true}, {12345, 1 << 30, false}}
	for _, c := range cases {
		r, p, v := UnpackPos(PackPos(c.ref, c.pos, c.rev))
		if r != c.ref || p != c.pos || v != c.rev {
			t.Errorf("round trip (%d,%d,%v) -> (%d,%d,%v)", c.ref, c.pos, c.rev, r, p, v)
		}
	}
}

func buildTestIndex(t *testing.T, rng *rand.Rand, opt Options) (*Index, []Ref) {
	t.Helper()
	refs := []Ref{
		{Name: "chr1", Seq: randomSeq(rng, 5000, 0.002)},
		{Name: "chr2", Seq: randomSeq(rng, 3000, 0)},
	}
	x, err := Build(refs, opt)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return x, refs
}

func TestIndexLookupFindsAllKeptMinimizers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, refs := buildTestIndex(t, rng, Options{K: 13, W: 8, MaxOccurrence: -1})
	total := 0
	for ri, r := range refs {
		for _, m := range Extract(nil, r.Seq, 13, 8) {
			hits := x.Lookup(m.Hash)
			if len(hits) == 0 {
				t.Fatalf("minimizer %x at %s:%d not found", m.Hash, r.Name, m.Pos)
			}
			found := false
			for _, h := range hits {
				rr, pp, vv := UnpackPos(h)
				if rr == int32(ri) && pp == m.Pos && vv == m.Rev {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("position %s:%d missing from hits %v", r.Name, m.Pos, hits)
			}
			total++
		}
	}
	st := x.Stats()
	if int64(total) != st.Minimizers || st.Kept != st.Minimizers || st.MaskedKmers != 0 {
		t.Fatalf("stats mismatch: extracted %d, stats %+v", total, st)
	}
	if st.Occupancy <= 0 || st.Occupancy > 0.5 {
		t.Fatalf("occupancy %f outside (0,0.5]", st.Occupancy)
	}
	if x.Lookup(0xdeadbeefdeadbeef) != nil && len(x.Lookup(0xdeadbeefdeadbeef)) != 0 {
		// A random absent key may rarely collide with a real one; accept
		// either nil or a genuine hit, but never panic.
		t.Log("absent-key lookup returned hits (hash collision)")
	}
}

func TestIndexMasking(t *testing.T) {
	// A reference that is one k-mer repeated: its minimizer occurs far
	// more than maxOcc times and must be masked.
	rep := bytes.Repeat([]byte("ACGTT"), 400)
	refs := []Ref{{Name: "rep", Seq: seq.Seq(rep)}}
	x, err := Build(refs, Options{K: 5, W: 4, MaxOccurrence: 8})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	st := x.Stats()
	if st.MaskedKmers == 0 || st.MaskedPositions == 0 {
		t.Fatalf("expected masking on repetitive input, stats %+v", st)
	}
	for _, m := range Extract(nil, seq.Seq(rep), 5, 4) {
		if hits := x.Lookup(m.Hash); len(hits) > 8 {
			t.Fatalf("masked key still returns %d hits", len(hits))
		}
	}
}

func TestBuildNormalizesN(t *testing.T) {
	refs := []Ref{{Name: "r", Seq: seq.MustNew("ACGTNNACGT")}}
	x, err := Build(refs, Options{K: 3, W: 2})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := x.Refs()[0].Seq.String(); got != "ACGTAAACGT" {
		t.Fatalf("stored ref %q, want N normalized to A", got)
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Error("Build accepted empty reference set")
	}
	if _, err := Build([]Ref{{Name: "", Seq: seq.MustNew("ACGT")}}, Options{}); err == nil {
		t.Error("Build accepted empty reference name")
	}
	if _, err := Build([]Ref{{Name: "r", Seq: seq.MustNew("ACGT")}}, Options{K: 40}); err == nil {
		t.Error("Build accepted k > MaxK")
	}
}

func TestSaveLoadRoundTripBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x, _ := buildTestIndex(t, rng, Options{K: 15, W: 10, MaxOccurrence: 64})
	var buf1 bytes.Buffer
	if err := x.Save(&buf1); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatalf("Save(loaded): %v", err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("save->load->save not bit-identical: %d vs %d bytes", buf1.Len(), buf2.Len())
	}
	if !reflect.DeepEqual(x.Stats(), loaded.Stats()) {
		t.Fatalf("stats drifted: built %+v loaded %+v", x.Stats(), loaded.Stats())
	}
	if loaded.K() != x.K() || loaded.W() != x.W() || loaded.MaxOccurrence() != x.MaxOccurrence() {
		t.Fatal("parameters drifted through serialization")
	}
	// Lookups must behave identically.
	for _, r := range x.Refs() {
		for _, m := range Extract(nil, r.Seq, x.K(), x.W()) {
			a, b := x.Lookup(m.Hash), loaded.Lookup(m.Hash)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("lookup(%x) diverged: %v vs %v", m.Hash, a, b)
			}
		}
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x, _ := buildTestIndex(t, rng, Options{K: 11, W: 5})
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	good := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[0] = 'X'
		if _, err := Load(bytes.NewReader(b)); err == nil {
			t.Fatal("accepted bad magic")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[4] = 99
		if _, err := Load(bytes.NewReader(b)); err == nil {
			t.Fatal("accepted unknown version")
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[len(b)/2] ^= 0xA5
		if _, err := Load(bytes.NewReader(b)); err == nil {
			t.Fatal("accepted CRC mismatch")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, 19, len(good) / 2, len(good) - 1} {
			if _, err := Load(bytes.NewReader(good[:n])); err == nil {
				t.Fatalf("accepted truncation to %d bytes", n)
			}
		}
	})
	t.Run("intact", func(t *testing.T) {
		if _, err := Load(bytes.NewReader(good)); err != nil {
			t.Fatalf("rejected intact file: %v", err)
		}
	})
}
