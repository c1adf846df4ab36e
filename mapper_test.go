package logan

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"logan/internal/genome"
	"logan/internal/seq"
)

// mapTestSet simulates a repeat-free genome and reads with a low error
// rate, so every read has exactly one true locus and the golden test can
// demand near-perfect placement.
func mapTestSet(t testing.TB, seed int64, genomeLen int) (genome.Genome, genome.ReadSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := genome.Synthetic(rng, "ref", genome.SyntheticOptions{Length: genomeLen})
	rs := genome.Simulate(rng, g, genome.SimOptions{
		Coverage: 2, MinLen: 500, MaxLen: 1500, ErrorRate: 0.03,
	})
	return g, rs
}

func genomeFasta(g genome.Genome) string {
	return ">" + g.Name + "\n" + g.Seq.String() + "\n"
}

func mapReadsOf(rs genome.ReadSet) []Read {
	reads := make([]Read, len(rs.Reads))
	for i, r := range rs.Reads {
		reads[i] = Read{Name: r.Name(), Seq: r.Seq}
	}
	return reads
}

func newTestMapper(t testing.TB, backend Backend) (*Mapper, *Aligner) {
	t.Helper()
	eng, err := NewAligner(EngineOptions{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	m, err := NewMapper(eng, MapperOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m, eng
}

// primaryRecords returns the first (primary) record of each read that
// produced any, keyed by read index.
func primaryRecords(recs []OverlapRecord) map[int]OverlapRecord {
	prim := make(map[int]OverlapRecord)
	for _, rec := range recs {
		if _, ok := prim[rec.QIndex]; !ok {
			prim[rec.QIndex] = rec
		}
	}
	return prim
}

// TestMapperGoldenPlacement is the end-to-end accuracy gate: simulated
// reads from a repeat-free genome must come back with ≥99% of primary
// placements at the true locus on the true strand, on the CPU and Hybrid
// backends.
func TestMapperGoldenPlacement(t *testing.T) {
	g, rs := mapTestSet(t, 42, 100_000)
	reads := mapReadsOf(rs)
	for _, tc := range []struct {
		name    string
		backend Backend
	}{
		{"cpu", CPU},
		{"hybrid", Hybrid},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := newTestMapper(t, tc.backend)
			st, err := m.Build(context.Background(), strings.NewReader(genomeFasta(g)), IndexOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Refs != 1 || st.Bases != int64(len(g.Seq)) || st.Kept == 0 {
				t.Fatalf("index stats %+v", st)
			}
			res, err := m.Map(context.Background(), reads, DefaultMapConfig(100))
			if err != nil {
				t.Fatal(err)
			}
			prim := primaryRecords(res.Records)
			if len(prim) < len(reads)*95/100 {
				t.Fatalf("only %d/%d reads produced a placement", len(prim), len(reads))
			}
			correct, confident := 0, 0
			for i, r := range rs.Reads {
				rec, ok := prim[i]
				if !ok {
					continue
				}
				wantStrand := byte('+')
				if r.RC {
					wantStrand = '-'
				}
				// The true locus is the sampled window; the mapped target
				// interval must land on it (a wrong locus on a 100 kbp
				// repeat-free genome shares essentially no overlap).
				lo, hi := max(rec.TStart, r.Start), min(rec.TEnd, r.End)
				if rec.Strand == wantStrand && hi-lo >= len(r.Seq)/2 {
					correct++
					if rec.MapQ > 0 {
						confident++
					}
				}
			}
			if frac := float64(correct) / float64(len(prim)); frac < 0.99 {
				t.Fatalf("true-locus placement rate %.4f (%d/%d), want >= 0.99", frac, correct, len(prim))
			}
			if confident < correct*9/10 {
				t.Fatalf("only %d/%d correct placements have MapQ > 0", confident, correct)
			}
			if res.Stats.Mapped != len(prim) || res.Stats.Reads != len(reads) {
				t.Fatalf("stats %+v disagree with %d placed reads", res.Stats, len(prim))
			}
			if res.Stats.Anchors == 0 || res.Stats.Chains == 0 || res.Stats.Extensions == 0 {
				t.Fatalf("empty pipeline stats %+v", res.Stats)
			}
		})
	}
}

// TestMapperSaveLoadIdenticalPAF pins index persistence end to end: a
// mapper that loads the saved index must emit byte-identical PAF to the
// mapper that built it.
func TestMapperSaveLoadIdenticalPAF(t *testing.T) {
	g, rs := mapTestSet(t, 7, 60_000)
	reads := mapReadsOf(rs)
	cfg := DefaultMapConfig(80)

	built, _ := newTestMapper(t, CPU)
	if _, err := built.Build(context.Background(), strings.NewReader(genomeFasta(g)), IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := built.Save(&saved); err != nil {
		t.Fatal(err)
	}

	loaded, _ := newTestMapper(t, CPU)
	lst, err := loaded.Load(bytes.NewReader(saved.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	bst, _ := built.IndexStats()
	if lst != bst {
		t.Fatalf("loaded stats %+v != built stats %+v", lst, bst)
	}

	pafOf := func(m *Mapper) []byte {
		res, err := m.Map(context.Background(), reads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WritePAF(&buf, res.Records); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := pafOf(built), pafOf(loaded)
	if len(a) == 0 {
		t.Fatal("no PAF output from the built mapper")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("built and loaded mappers disagree:\n%d bytes vs %d bytes", len(a), len(b))
	}
}

// TestMapperCoalescerRouteIdentical: routing extension batches through
// the request coalescer must not change the PAF output relative to the
// engine-direct path.
func TestMapperCoalescerRouteIdentical(t *testing.T) {
	g, rs := mapTestSet(t, 13, 60_000)
	reads := mapReadsOf(rs)
	cfg := DefaultMapConfig(80)

	direct, eng := newTestMapper(t, CPU)
	if _, err := direct.Build(context.Background(), strings.NewReader(genomeFasta(g)), IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	coal := eng.NewCoalescer(CoalescerOptions{})
	defer coal.Close()
	routed, err := NewMapper(eng, MapperOptions{Coalescer: coal})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := routed.Load(indexBytes(t, direct)); err != nil {
		t.Fatal(err)
	}

	resA, err := direct.Map(context.Background(), reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := routed.Map(context.Background(), reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WritePAF(&a, resA.Records); err != nil {
		t.Fatal(err)
	}
	if err := WritePAF(&b, resB.Records); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("coalescer-routed PAF differs from engine-direct (%d vs %d bytes)", a.Len(), b.Len())
	}
}

func indexBytes(t *testing.T, m *Mapper) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

// TestMapFastaMatchesMap: the streamed-FASTA entry point must produce the
// same records as Map over pre-parsed reads.
func TestMapFastaMatchesMap(t *testing.T) {
	g, rs := mapTestSet(t, 19, 40_000)
	reads := mapReadsOf(rs)
	cfg := DefaultMapConfig(80)

	m, _ := newTestMapper(t, CPU)
	if _, err := m.Build(context.Background(), strings.NewReader(genomeFasta(g)), IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	var fa strings.Builder
	for _, r := range reads {
		fmt.Fprintf(&fa, ">%s\n%s\n", r.Name, r.Seq)
	}
	resA, err := m.Map(context.Background(), reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := m.MapFasta(context.Background(), strings.NewReader(fa.String()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WritePAF(&a, resA.Records); err != nil {
		t.Fatal(err)
	}
	if err := WritePAF(&b, resB.Records); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("MapFasta PAF differs from Map (%d vs %d bytes)", a.Len(), b.Len())
	}
}

func TestMapperNoIndex(t *testing.T) {
	m, _ := newTestMapper(t, CPU)
	if m.Ready() {
		t.Fatal("fresh mapper reports Ready")
	}
	if _, ok := m.IndexStats(); ok {
		t.Fatal("fresh mapper reports index stats")
	}
	if _, err := m.Map(context.Background(), []Read{{Name: "r", Seq: []byte("ACGT")}}, DefaultMapConfig(50)); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("Map without index: err = %v, want ErrNoIndex", err)
	}
	if err := m.Save(new(bytes.Buffer)); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("Save without index: err = %v, want ErrNoIndex", err)
	}
}

func TestMapConfigValidate(t *testing.T) {
	if err := (MapConfig{}).Validate(); err == nil {
		t.Error("zero MapConfig validated")
	}
	bad := DefaultMapConfig(50)
	bad.Scoring = AffineScoring(1, -1, -2, -1)
	if err := bad.Validate(); err == nil {
		t.Error("affine scoring accepted by the mapping pipeline")
	}
	bad = DefaultMapConfig(-1)
	if err := bad.Validate(); err == nil {
		t.Error("negative X accepted")
	}
	bad = DefaultMapConfig(50)
	bad.MaxGap = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative MaxGap accepted")
	}
	if err := DefaultMapConfig(50).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}

	m, _ := newTestMapper(t, CPU)
	if _, err := m.Map(context.Background(), nil, MapConfig{}); err == nil {
		t.Error("Map accepted an invalid config")
	}
}

func TestMapperEdgeInputs(t *testing.T) {
	g, _ := mapTestSet(t, 23, 20_000)
	m, _ := newTestMapper(t, CPU)
	if _, err := m.Build(context.Background(), strings.NewReader(genomeFasta(g)), IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMapConfig(50)

	// No reads at all.
	res, err := m.Map(context.Background(), nil, cfg)
	if err != nil || len(res.Records) != 0 || res.Stats.Reads != 0 {
		t.Fatalf("empty input: %+v err %v", res, err)
	}
	// Reads shorter than k map nowhere but must not error.
	res, err = m.Map(context.Background(), []Read{{Name: "tiny", Seq: []byte("ACGT")}}, cfg)
	if err != nil || len(res.Records) != 0 || res.Stats.Mapped != 0 {
		t.Fatalf("short read: %+v err %v", res, err)
	}
	// Invalid bases are rejected up front with the read named.
	if _, err := m.Map(context.Background(), []Read{{Name: "bad", Seq: []byte("ACG!")}}, cfg); err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("invalid read: err = %v", err)
	}
	// A read of a sequence absent from the reference yields nothing.
	rng := rand.New(rand.NewSource(99))
	alien := seq.RandSeq(rng, 800)
	res, err = m.Map(context.Background(), []Read{{Name: "alien", Seq: alien}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Mapped != 0 {
		t.Fatalf("random 800 bp read mapped: %+v", res.Records)
	}
}

// TestMapperProgressAndCancel runs Map over many read batches and checks
// its counters against its records, runs MapFasta, and checks that a
// cancelled Map or Build returns the context's error. Mapping reports no
// progress of its own: a run returns its MapStats.
func TestMapperProgressAndCancel(t *testing.T) {
	g, rs := mapTestSet(t, 29, 40_000)
	reads := mapReadsOf(rs)
	m, _ := newTestMapper(t, CPU)
	if _, err := m.Build(context.Background(), strings.NewReader(genomeFasta(g)), IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMapConfig(80)
	cfg.BatchReads = 8
	res, err := m.Map(context.Background(), reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The counters of a many-batch run agree with its records.
	mapped := map[int]bool{}
	for _, rec := range res.Records {
		mapped[rec.QIndex] = true
	}
	if st := res.Stats; st.Reads != len(reads) || st.Mapped != len(mapped) || st.Mapped == 0 ||
		st.Extensions < int64(len(res.Records)) || st.Cells == 0 {
		t.Fatalf("stats %+v disagree with %d records over %d mapped reads", st, len(res.Records), len(mapped))
	}

	var fa strings.Builder
	for _, r := range reads[:16] {
		fmt.Fprintf(&fa, ">%s\n%s\n", r.Name, r.Seq)
	}
	if _, err := m.MapFasta(context.Background(), strings.NewReader(fa.String()), cfg); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Map(ctx, reads, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Map: err = %v", err)
	}
	if _, err := m.Build(ctx, strings.NewReader(genomeFasta(g)), IndexOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Build: err = %v", err)
	}
}

// TestMapperSecondaryPlacements: with a duplicated segment in the
// reference, a read from the repeat maps with a secondary placement and a
// collapsed mapping quality.
func TestMapperSecondaryPlacements(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := seq.RandSeq(rng, 30_000)
	// Plant an exact 2 kbp duplication far from itself.
	copy(s[20_000:22_000], s[5_000:7_000])
	m, _ := newTestMapper(t, CPU)
	fa := ">dup\n" + s.String() + "\n"
	if _, err := m.Build(context.Background(), strings.NewReader(fa), IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	read := Read{Name: "rep", Seq: s.Sub(5_200, 6_800)}
	cfg := DefaultMapConfig(80)
	res, err := m.Map(context.Background(), []Read{read}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) < 2 {
		t.Fatalf("repeat read produced %d records, want primary + secondary: %+v", len(res.Records), res.Records)
	}
	if res.Records[0].MapQ != 0 {
		t.Fatalf("ambiguous primary has MapQ %d, want 0", res.Records[0].MapQ)
	}
	// Primaries only when MaxSecondary is 0.
	cfg.MaxSecondary = 0
	res, err = m.Map(context.Background(), []Read{read}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("MaxSecondary=0 produced %d records", len(res.Records))
	}
}

// mapGoldenSet is the input of the golden mapping pins: a 60 kbp genome
// with 10 % of it in planted 2 kbp repeats (so some reads place twice)
// and 15 % error reads from both strands.
func mapGoldenSet(t testing.TB) (genome.Genome, []Read) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	g := genome.Synthetic(rng, "golden", genome.SyntheticOptions{Length: 60_000, RepeatFrac: 0.1})
	rs := genome.Simulate(rng, g, genome.SimOptions{
		Coverage: 1.5, MinLen: 1000, MaxLen: 3000, ErrorRate: 0.15,
	})
	return g, mapReadsOf(rs)
}

// mapGoldenIndexSHA256 is the SHA-256 of the Save bytes of mapGoldenSet's
// default index, written by the commit before the running-minimum
// minimizer sweep.
const mapGoldenIndexSHA256 = "470801e395928a006539804e9ca80abb22968a39dcf207f2b9785a70b9755a8c"

// TestMapperGoldenPAF pins the mapping pipeline to files written by the
// commit before parallel seeding and the running-minimum minimizer sweep:
// the index's Save bytes by their digest, and testdata/mapper_golden.paf,
// Map's PAF at x=100. Unlike served == offline, neither side of these
// comparisons moves with the code under test.
func TestMapperGoldenPAF(t *testing.T) {
	want, err := os.ReadFile("testdata/mapper_golden.paf")
	if err != nil {
		t.Fatal(err)
	}
	g, reads := mapGoldenSet(t)
	m, _ := newTestMapper(t, CPU)
	if _, err := m.Build(context.Background(), strings.NewReader(genomeFasta(g)), IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	var idx bytes.Buffer
	if err := m.Save(&idx); err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(idx.Bytes())); sum != mapGoldenIndexSHA256 {
		t.Errorf("index Save bytes (%d) have SHA-256 %s, want %s", idx.Len(), sum, mapGoldenIndexSHA256)
	}
	res, err := m.Map(context.Background(), reads, DefaultMapConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WritePAF(&got, res.Records); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("PAF (%d records, %d bytes) differs from the golden file (%d bytes)",
			len(res.Records), got.Len(), len(want))
	}
	// The pin is only worth having if it covers both strands and
	// secondary placements.
	strands := map[byte]bool{}
	perRead := map[int]int{}
	for _, rec := range res.Records {
		strands[rec.Strand] = true
		perRead[rec.QIndex]++
	}
	secondaries := len(res.Records) - len(perRead)
	if !strands['+'] || !strands['-'] || secondaries == 0 {
		t.Errorf("golden set covers strands %v with %d secondaries; want both strands and a secondary", strands, secondaries)
	}
}

// TestMapSeedingWorkerInvariance is the mapper's metamorphic test: the
// number of seeding workers (GOMAXPROCS) and the batch size may change
// how reads are split, never what Map returns — the same records and the
// same Anchors, Chains, Extensions, Cells and Mapped counters.
func TestMapSeedingWorkerInvariance(t *testing.T) {
	g, reads := mapGoldenSet(t)
	m, _ := newTestMapper(t, CPU)
	if _, err := m.Build(context.Background(), strings.NewReader(genomeFasta(g)), IndexOptions{}); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want *MapResult
	for _, procs := range []int{1, 2, 8} {
		for _, batch := range []int{1, 7, 512} {
			runtime.GOMAXPROCS(procs)
			cfg := DefaultMapConfig(100)
			cfg.BatchReads = batch
			res, err := m.Map(context.Background(), reads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = res
				continue
			}
			got, exp := res.Stats, want.Stats
			if got.Anchors != exp.Anchors || got.Chains != exp.Chains || got.Extensions != exp.Extensions ||
				got.Cells != exp.Cells || got.Mapped != exp.Mapped {
				t.Errorf("GOMAXPROCS=%d BatchReads=%d: stats %+v, want %+v", procs, batch, got, exp)
			}
			if !reflect.DeepEqual(res.Records, want.Records) {
				t.Errorf("GOMAXPROCS=%d BatchReads=%d: %d records differ from GOMAXPROCS=1 BatchReads=1 (%d)",
					procs, batch, len(res.Records), len(want.Records))
			}
		}
	}
}
