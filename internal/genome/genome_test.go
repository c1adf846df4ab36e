package genome

import (
	"bytes"
	"math/rand"
	"testing"

	"logan/internal/seq"
)

func TestSynthetic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := Synthetic(rng, "g", SyntheticOptions{Length: 50000})
	if len(g.Seq) != 50000 {
		t.Fatalf("genome length %d", len(g.Seq))
	}
	gc := float64(bytes.Count(g.Seq, []byte("G"))+bytes.Count(g.Seq, []byte("C"))) / float64(len(g.Seq))
	if gc < 0.45 || gc > 0.55 {
		t.Fatalf("GC %v far from 0.5 for uniform genome", gc)
	}
}

func TestSyntheticRepeats(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := Synthetic(rng, "rep", SyntheticOptions{Length: 50000, RepeatFrac: 0.2, RepeatLen: 1000})
	// Repeats create exact duplicated k-mers: count distinct 31-mers and
	// expect fewer than a repeat-free genome of the same size.
	plain := Synthetic(rand.New(rand.NewSource(3)), "plain", SyntheticOptions{Length: 50000})
	c := seq.MustKmerCodec(31)
	distinct := func(s seq.Seq) int {
		set := map[seq.Kmer]bool{}
		for _, k := range c.Scan(nil, s, true) {
			set[k.Kmer] = true
		}
		return len(set)
	}
	if d, p := distinct(g.Seq), distinct(plain.Seq); d >= p {
		t.Fatalf("repeat genome has %d distinct 31-mers, plain has %d", d, p)
	}
}

func TestSimulateCoverageAndLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := Synthetic(rng, "g", SyntheticOptions{Length: 100000})
	rs := Simulate(rng, g, SimOptions{Coverage: 5, MinLen: 1000, MaxLen: 3000, ErrorRate: 0.1})
	var bases int64
	for _, r := range rs.Reads {
		winLen := r.End - r.Start
		if winLen < 1000 || winLen > 3000 {
			t.Fatalf("window length %d outside range", winLen)
		}
		// Mutated read length stays within ~10% of the window.
		if float64(len(r.Seq)) < 0.85*float64(winLen) || float64(len(r.Seq)) > 1.15*float64(winLen) {
			t.Fatalf("read length %d vs window %d", len(r.Seq), winLen)
		}
		bases += int64(winLen)
	}
	cov := float64(bases) / float64(len(g.Seq))
	if cov < 5 || cov > 5.5 {
		t.Fatalf("achieved coverage %v, want ~5", cov)
	}
	// Roughly half the reads should be reverse-complemented.
	rc := 0
	for _, r := range rs.Reads {
		if r.RC {
			rc++
		}
	}
	frac := float64(rc) / float64(len(rs.Reads))
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("RC fraction %v", frac)
	}
}

func TestSimulateStranded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := Synthetic(rng, "g", SyntheticOptions{Length: 20000})
	rs := Simulate(rng, g, SimOptions{Coverage: 2, MinLen: 500, MaxLen: 1000, Stranded: true})
	for _, r := range rs.Reads {
		if r.RC {
			t.Fatal("stranded simulation produced an RC read")
		}
	}
}

func TestReadFidelity(t *testing.T) {
	// With zero error the read must equal the genomic window (possibly
	// reverse-complemented).
	rng := rand.New(rand.NewSource(6))
	g := Synthetic(rng, "g", SyntheticOptions{Length: 30000})
	rs := Simulate(rng, g, SimOptions{Coverage: 1, MinLen: 800, MaxLen: 900, ErrorRate: 0})
	for _, r := range rs.Reads {
		window := g.Seq.Sub(r.Start, r.End)
		if r.RC {
			window = window.RevComp()
		}
		if string(r.Seq) != string(window) {
			t.Fatalf("zero-error read %d differs from its window", r.ID)
		}
	}
}

func TestTrueOverlaps(t *testing.T) {
	g := Genome{Name: "toy", Seq: seq.MustNew("ACGTACGTACGTACGTACGT")}
	rs := ReadSet{Genome: g, Reads: []Read{
		{ID: 0, Start: 0, End: 10},
		{ID: 1, Start: 5, End: 15},
		{ID: 2, Start: 12, End: 20},
		{ID: 3, Start: 0, End: 20},
	}}
	ov := rs.TrueOverlaps(3)
	want := map[[2]int]int{
		{0, 1}: 5, {0, 3}: 10, {1, 2}: 3, {1, 3}: 10, {2, 3}: 8,
	}
	if len(ov) != len(want) {
		t.Fatalf("got %d overlaps %v, want %d", len(ov), ov, len(want))
	}
	for _, o := range ov {
		if want[[2]int{o.I, o.J}] != o.Overlap {
			t.Fatalf("overlap %+v unexpected", o)
		}
	}
	// Raising the threshold drops the 3-base overlap.
	if got := rs.TrueOverlaps(4); len(got) != 4 {
		t.Fatalf("minOverlap=4: %d overlaps", len(got))
	}
}

func TestPresets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []Preset{EColiSim(), CElegansSim()} {
		if p.PaperAlignments <= 0 {
			t.Fatalf("%s: missing paper alignment count", p.Name)
		}
		if p.Name == "" || p.GenomeLen <= 0 {
			t.Fatalf("bad preset %+v", p)
		}
	}
	small := Preset{Name: "tiny", GenomeLen: 20000, Coverage: 3, MinLen: 500, MaxLen: 900, ErrorRate: 0.1}
	rs := small.Build(rng)
	if len(rs.Reads) < 40 {
		t.Fatalf("tiny preset produced %d reads", len(rs.Reads))
	}
	if len(rs.TrueOverlaps(200)) == 0 {
		t.Fatal("no true overlaps at coverage 3")
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := Synthetic(rng, "g", SyntheticOptions{Length: 20000})
	rs := Simulate(rng, g, SimOptions{Coverage: 1, MinLen: 500, MaxLen: 800, ErrorRate: 0.05})
	recs := rs.Records()
	if len(recs) != len(rs.Reads) {
		t.Fatalf("records %d != reads %d", len(recs), len(rs.Reads))
	}
	for i, rec := range recs {
		if rec.Name != rs.Reads[i].Name() {
			t.Fatalf("record %d name %q != %q", i, rec.Name, rs.Reads[i].Name())
		}
		if len(rec.Seq) != len(rs.Reads[i].Seq) {
			t.Fatalf("record %d length mismatch", i)
		}
	}
	back := FromRecords(recs)
	if len(back.Reads) != len(rs.Reads) {
		t.Fatalf("FromRecords %d reads", len(back.Reads))
	}
	for i := range back.Reads {
		if string(back.Reads[i].Seq) != string(rs.Reads[i].Seq) {
			t.Fatalf("read %d sequence changed", i)
		}
		if back.Reads[i].Start != 0 || back.Reads[i].End != 0 {
			t.Fatal("FromRecords must not invent provenance")
		}
	}
}

func TestReadName(t *testing.T) {
	fwd := Read{ID: 3, Start: 10, End: 50}
	if fwd.Name() != "read3_10_50+" {
		t.Fatalf("name = %q", fwd.Name())
	}
	rc := Read{ID: 4, Start: 5, End: 25, RC: true}
	if rc.Name() != "read4_5_25-" {
		t.Fatalf("rc name = %q", rc.Name())
	}
}

func TestSimulatePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := Synthetic(rng, "g", SyntheticOptions{Length: 1000})
	for name, opt := range map[string]SimOptions{
		"zero min":     {Coverage: 1, MinLen: 0, MaxLen: 10},
		"inverted":     {Coverage: 1, MinLen: 100, MaxLen: 50},
		"reads>genome": {Coverage: 1, MinLen: 2000, MaxLen: 3000},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			Simulate(rng, g, opt)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero-length genome: no panic")
			}
		}()
		Synthetic(rng, "bad", SyntheticOptions{Length: 0})
	}()
}
