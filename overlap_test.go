package logan

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logan/internal/backend"
	"logan/internal/bella"
	"logan/internal/genome"
	"logan/internal/seq"
	"logan/internal/xdrop"
)

// overlapTestSet builds a deterministic simulated read set with enough
// overlaps (and repeat-induced spurious candidates) to exercise every
// pipeline stage.
func overlapTestSet(t testing.TB, seed int64, genomeLen int) genome.ReadSet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := genome.Synthetic(rng, "t", genome.SyntheticOptions{Length: genomeLen, RepeatFrac: 0.05, RepeatLen: 1200})
	return genome.Simulate(rng, g, genome.SimOptions{
		Coverage: 5, MinLen: 900, MaxLen: 2200, ErrorRate: 0.12,
	})
}

func readsOf(rs genome.ReadSet) []Read {
	reads := make([]Read, len(rs.Reads))
	for i, r := range rs.Reads {
		reads[i] = Read{Name: r.Name(), Seq: r.Seq}
	}
	return reads
}

func overlapTestConfig(x int32) OverlapConfig {
	cfg := DefaultOverlapConfig(5, 0.12, x)
	cfg.MinOverlap = 400
	return cfg
}

// TestOverlapperMatchesInternalPipeline is the golden identity: the public
// Overlapper and the internal bella pipeline must produce byte-identical
// PAF on the same reads, for the engine-direct path on CPU, GPU and Hybrid
// engines and for the coalescer-routed path — the paper's "our optimized
// BELLA version with LOGAN integration produces equivalent results as the
// original version".
func TestOverlapperMatchesInternalPipeline(t *testing.T) {
	rs := overlapTestSet(t, 11, 60_000)
	cfg := overlapTestConfig(20)

	// Reference: the internal pipeline on a bare CPU backend.
	bcfg := cfg.bellaConfig()
	cpu := backend.NewCPU(0)
	defer cpu.Close()
	ref, err := bella.Run(context.Background(), rs, bcfg, cpu.ExtendBatch)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Overlaps) == 0 {
		t.Fatal("reference pipeline produced no overlaps; test set too small")
	}
	var want bytes.Buffer
	if err := bella.WriteRecords(&want, bella.PAFRecords(rs.Reads, ref.Overlaps)); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name      string
		opt       EngineOptions
		coalesced bool
	}{
		{"cpu-direct", EngineOptions{Backend: CPU}, false},
		{"gpu-direct", EngineOptions{Backend: GPU, GPUs: 2}, false},
		{"hybrid-direct", EngineOptions{Backend: Hybrid, GPUs: 2}, false},
		{"cpu-coalesced", EngineOptions{Backend: CPU}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewAligner(tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			var oopt OverlapperOptions
			if tc.coalesced {
				coal := eng.NewCoalescer(CoalescerOptions{})
				defer coal.Close()
				oopt.Coalescer = coal
			}
			ov, err := NewOverlapper(eng, oopt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ov.Run(context.Background(), readsOf(rs), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := WritePAF(&got, res.Records); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("PAF diverges from the internal pipeline\npublic (%d lines):\n%.400s\ninternal (%d lines):\n%.400s",
					bytes.Count(got.Bytes(), []byte{'\n'}), got.String(),
					bytes.Count(want.Bytes(), []byte{'\n'}), want.String())
			}
			if res.Stats.CandidatePairs != ref.Candidates || res.Stats.ReliableKmers != ref.Reliable {
				t.Errorf("stats diverge: got %d cands/%d kmers, want %d/%d",
					res.Stats.CandidatePairs, res.Stats.ReliableKmers, ref.Candidates, ref.Reliable)
			}
			if tc.opt.Backend == GPU && res.Stats.DeviceTime <= 0 {
				t.Error("GPU engine reported no modeled device time")
			}
		})
	}
}

// TestOverlapperRunFasta round-trips the read set through FASTA text and
// checks the result is identical to in-memory ingestion, including read
// names in the PAF.
func TestOverlapperRunFasta(t *testing.T) {
	rs := overlapTestSet(t, 12, 40_000)
	cfg := overlapTestConfig(15)
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ov, err := NewOverlapper(eng, OverlapperOptions{})
	if err != nil {
		t.Fatal(err)
	}

	memRes, err := ov.Run(context.Background(), readsOf(rs), cfg)
	if err != nil {
		t.Fatal(err)
	}

	var fa bytes.Buffer
	if err := seq.WriteFasta(&fa, rs.Records()); err != nil {
		t.Fatal(err)
	}
	var parsed int
	cfg.OnProgress = func(p OverlapProgress) {
		if p.Stage == StageIngest {
			parsed = p.ReadsParsed
		}
	}
	faRes, err := ov.RunFasta(context.Background(), &fa, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if parsed != len(rs.Reads) {
		t.Errorf("ingest progress reported %d reads, want %d", parsed, len(rs.Reads))
	}

	var a, b bytes.Buffer
	if err := WritePAF(&a, memRes.Records); err != nil {
		t.Fatal(err)
	}
	if err := WritePAF(&b, faRes.Records); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("FASTA round trip changed the PAF output")
	}
	if len(faRes.Records) > 0 && !strings.HasPrefix(faRes.Records[0].QName, "read") {
		t.Errorf("FASTA names lost: first qname %q", faRes.Records[0].QName)
	}
}

// TestOverlapperGoldenPAF pins the whole pipeline to a file written by the
// commit before the sort-based k-mer front end: testdata/bella_tiny_seed1.paf
// is the output of `bella -preset tiny -seed 1 -paf ...` at that commit.
// RunFasta must reproduce it byte for byte whatever the worker count.
func TestOverlapperGoldenPAF(t *testing.T) {
	want, err := os.ReadFile("testdata/bella_tiny_seed1.paf")
	if err != nil {
		t.Fatal(err)
	}
	// cmd/bella's "tiny" preset and defaults (-x 25 -k 17 -minov 500).
	tiny := genome.Preset{
		Name: "tiny", GenomeLen: 80_000, Coverage: 5,
		MinLen: 1000, MaxLen: 2500, ErrorRate: 0.15, RepeatFrac: 0.02,
	}
	rs := tiny.Build(rand.New(rand.NewSource(1)))
	var fa bytes.Buffer
	if err := seq.WriteFasta(&fa, rs.Records()); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultOverlapConfig(tiny.Coverage, tiny.ErrorRate, 25)
	cfg.MinOverlap = 500

	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ov, err := NewOverlapper(eng, OverlapperOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		cfg.Workers = workers
		res, err := ov.RunFasta(context.Background(), bytes.NewReader(fa.Bytes()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WritePAF(&got, res.Records); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("Workers=%d: PAF (%d records, %d bytes) differs from the golden file (%d bytes)",
				workers, len(res.Records), got.Len(), len(want))
		}
	}
}

// TestOverlapperProgress checks the progress contract: stages in order,
// monotone extension counters, final counters matching the result.
func TestOverlapperProgress(t *testing.T) {
	rs := overlapTestSet(t, 13, 40_000)
	cfg := overlapTestConfig(15)
	cfg.BatchPairs = 8 // many chunks

	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ov, _ := NewOverlapper(eng, OverlapperOptions{})

	var mu sync.Mutex
	var stages []OverlapStage
	lastDone := -1
	var final OverlapProgress
	cfg.OnProgress = func(p OverlapProgress) {
		mu.Lock()
		defer mu.Unlock()
		if len(stages) == 0 || stages[len(stages)-1] != p.Stage {
			stages = append(stages, p.Stage)
		}
		if p.Stage == StageAlign {
			if p.ExtensionsDone < lastDone {
				t.Errorf("extension progress went backwards: %d after %d", p.ExtensionsDone, lastDone)
			}
			lastDone = p.ExtensionsDone
			if p.ExtensionsTotal == 0 {
				t.Error("align progress with zero ExtensionsTotal")
			}
		}
		final = p
	}
	res, err := ov.Run(context.Background(), readsOf(rs), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []OverlapStage{StageCount, StagePrune, StageMatrix, StageSpGEMM, StageBinning, StageAlign, StageFilter, StageDone}
	if len(stages) != len(want) {
		t.Fatalf("stages %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("stages %v, want %v", stages, want)
		}
	}
	if final.Stage != StageDone || final.Overlaps != len(res.Records) {
		t.Errorf("final progress %+v does not match %d records", final, len(res.Records))
	}
	if final.ExtensionsDone != final.ExtensionsTotal || final.ExtensionsTotal != res.Stats.CandidatePairs {
		t.Errorf("final extensions %d/%d, want %d/%d", final.ExtensionsDone, final.ExtensionsTotal,
			res.Stats.CandidatePairs, res.Stats.CandidatePairs)
	}
}

// TestOverlapperCancel cancels mid-extension and expects the run to stop
// promptly with the context's error. Its precondition is a data set with
// more candidate pairs than one BatchPairs chunk: only then does a
// progress report fall strictly inside the extension stage.
func TestOverlapperCancel(t *testing.T) {
	rs := overlapTestSet(t, 14, 60_000)
	cfg := overlapTestConfig(25)
	cfg.BatchPairs = 4

	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ov, _ := NewOverlapper(eng, OverlapperOptions{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var candidates atomic.Int64
	cfg.OnProgress = func(p OverlapProgress) {
		if p.Stage != StageAlign {
			return
		}
		candidates.Store(int64(p.ExtensionsTotal))
		// Cancel as soon as the extension stage has made some progress but
		// before it finishes.
		if p.ExtensionsDone > 0 && p.ExtensionsDone < p.ExtensionsTotal {
			cancel()
		}
	}
	_, err = ov.Run(ctx, readsOf(rs), cfg)
	if n := candidates.Load(); n <= int64(cfg.BatchPairs) {
		t.Fatalf("precondition: the data set yields %d candidate pairs, not more than BatchPairs (%d)", n, cfg.BatchPairs)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestOverlapperValidation covers the config/constructor error paths.
func TestOverlapperValidation(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := NewOverlapper(nil, OverlapperOptions{}); err == nil {
		t.Error("nil engine accepted")
	}
	ov, _ := NewOverlapper(eng, OverlapperOptions{})

	if _, err := ov.Run(context.Background(), nil, OverlapConfig{}); err == nil {
		t.Error("zero config accepted")
	}
	bad := overlapTestConfig(10)
	bad.Scoring = AffineScoring(1, -1, -2, -1)
	if _, err := ov.Run(context.Background(), nil, bad); err == nil {
		t.Error("affine overlap scoring accepted")
	}
	badK := overlapTestConfig(10)
	badK.K = 99
	if _, err := ov.Run(context.Background(), nil, badK); err == nil {
		t.Error("k=99 accepted")
	}
	okCfg := overlapTestConfig(10)
	if _, err := ov.Run(context.Background(), []Read{{Name: "r", Seq: []byte("AC!GT")}}, okCfg); err == nil {
		t.Error("invalid base accepted")
	}

	// Empty input is a valid, empty run.
	res, err := ov.Run(context.Background(), nil, okCfg)
	if err != nil || len(res.Records) != 0 {
		t.Errorf("empty run: %v, %d records", err, len(res.Records))
	}
}

// TestOverlapperTraceback checks traceback through the public API: the
// PAF agrees with the internal pipeline byte for byte, engine-direct and
// coalescer-routed, and every record's CIGAR, rescored against the
// reads, equals its AS:i over exactly its query and target intervals,
// with column 10 counting the CIGAR's matches.
func TestOverlapperTraceback(t *testing.T) {
	rs := overlapTestSet(t, 15, 30_000)
	cfg := overlapTestConfig(15)
	cfg.Traceback = true

	bcfg := cfg.bellaConfig()
	cpu := backend.NewCPU(0)
	defer cpu.Close()
	ref, err := bella.Run(context.Background(), rs, bcfg, cpu.ExtendBatch)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := bella.WriteRecords(&want, bella.PAFRecords(rs.Reads, ref.Overlaps)); err != nil {
		t.Fatal(err)
	}

	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	coal := eng.NewCoalescer(CoalescerOptions{})
	defer coal.Close()
	for _, tc := range []struct {
		name string
		opt  OverlapperOptions
	}{{"engine-direct", OverlapperOptions{}}, {"coalesced", OverlapperOptions{Coalescer: coal}}} {
		ov, _ := NewOverlapper(eng, tc.opt)
		res, err := ov.Run(context.Background(), readsOf(rs), cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got bytes.Buffer
		if err := WritePAF(&got, res.Records); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: traceback PAF diverges from the internal pipeline", tc.name)
		}
		if len(res.Records) == 0 {
			t.Fatalf("%s: no records to trace", tc.name)
		}
		for i, r := range res.Records {
			q := rs.Reads[r.QIndex].Seq[r.QStart:r.QEnd]
			tgt := rs.Reads[r.TIndex].Seq[r.TStart:r.TEnd]
			if r.Strand == '-' {
				tgt = tgt.RevComp()
			}
			ops := expandCIGAR(t, r.CIGAR)
			score, err := xdrop.Rescore(ops, q, tgt, cfg.Scoring.linear)
			if err != nil || score != r.Score {
				t.Fatalf("%s: record %d CIGAR rescores to %d, %v; AS:i:%d", tc.name, i, score, err, r.Score)
			}
			if n := strings.Count(string(ops), "="); r.Matches != n {
				t.Fatalf("%s: record %d column 10 is %d, the CIGAR has %d matches", tc.name, i, r.Matches, n)
			}
		}
	}
	if coal.Metrics().MergedBatches == 0 {
		t.Error("the coalesced run's chunks never reached the coalescer")
	}
}

// expandCIGAR expands an extended CIGAR into its columns.
func expandCIGAR(t *testing.T, cigar string) []xdrop.Op {
	t.Helper()
	var ops []xdrop.Op
	n := 0
	for _, c := range []byte(cigar) {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
			continue
		}
		if n == 0 {
			t.Fatalf("CIGAR %q: op %c without a length", cigar, c)
		}
		for ; n > 0; n-- {
			ops = append(ops, xdrop.Op(c))
		}
	}
	if n != 0 || len(ops) == 0 {
		t.Fatalf("malformed CIGAR %q", cigar)
	}
	return ops
}

// TestOverlapSharesEngine proves overlap and Align traffic interleave on
// one engine: an overlap run and concurrent Align batches both complete
// with correct results.
func TestOverlapSharesEngine(t *testing.T) {
	rs := overlapTestSet(t, 16, 40_000)
	cfg := overlapTestConfig(15)

	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ov, _ := NewOverlapper(eng, OverlapperOptions{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pairs := []Pair{{
			Query:  []byte("ACGTACGTACGTACGT"),
			Target: []byte("ACGTACGTACGTACGT"),
			SeedQ:  4, SeedT: 4, SeedLen: 4,
		}}
		for {
			select {
			case <-stop:
				return
			default:
			}
			out, _, err := eng.Align(context.Background(), pairs, DefaultConfig(20))
			if err != nil {
				t.Errorf("concurrent Align: %v", err)
				return
			}
			if out[0].Score != 16 {
				t.Errorf("concurrent Align score %d, want 16", out[0].Score)
				return
			}
		}
	}()
	res, err := ov.Run(context.Background(), readsOf(rs), cfg)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Error("overlap run under concurrent Align traffic found nothing")
	}
}

// shedding wraps extend so that its first k calls are shed with
// ErrOverloaded, as coalescer admission sheds a chunk, and later calls
// run through to extend. onShed, when non-nil, runs at every shed call
// with the call's number, from 1.
func shedding(k int64, extend backend.ExtendFunc, onShed func(call int64)) (backend.ExtendFunc, *atomic.Int64) {
	calls := new(atomic.Int64)
	return func(ctx context.Context, in []seq.Pair, out []xdrop.SeedResult, sch xdrop.Scheme, x int32) (backend.BatchStats, error) {
		if c := calls.Add(1); c <= k {
			if onShed != nil {
				onShed(c)
			}
			return backend.BatchStats{}, ErrOverloaded
		}
		return extend(ctx, in, out, sch, x)
	}, calls
}

// TestExtendPathShedRetry drives the pipelines' shed-retry loop with an
// extend function that is shed k times before it lets chunks through:
// both pipelines return the results of a run that was never shed, count
// k sheds and k retries in their stats (and the Overlapper in its last
// progress update), and grow logan_overlap_shed_total and
// logan_map_retries_total by k.
func TestExtendPathShedRetry(t *testing.T) {
	const k = 3
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	t.Run("overlap", func(t *testing.T) {
		rs := overlapTestSet(t, 13, 40_000)
		cfg := overlapTestConfig(15)
		ov, _ := NewOverlapper(eng, OverlapperOptions{})
		want, err := ov.Run(context.Background(), readsOf(rs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ov.path.extend, _ = shedding(k, eng.extendPrepared, nil)
		var last OverlapProgress
		cfg.OnProgress = func(p OverlapProgress) { last = p }
		shedBefore := ov.path.shedTotal.Value()
		got, err := ov.Run(context.Background(), readsOf(rs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Records) == 0 || !reflect.DeepEqual(got.Records, want.Records) {
			t.Errorf("%d records after %d sheds, want the unshed run's %d", len(got.Records), k, len(want.Records))
		}
		if st := got.Stats; st.Shed != k || st.Retries != k {
			t.Errorf("stats shed %d, retries %d; want %d each", st.Shed, st.Retries, k)
		}
		if last.Stage != StageDone || last.Shed != k || last.Retries != k {
			t.Errorf("last progress %+v; want stage done with %d sheds and retries", last, k)
		}
		if d := ov.path.shedTotal.Value() - shedBefore; d != k {
			t.Errorf("logan_overlap_shed_total grew by %v, want %d", d, k)
		}
	})

	t.Run("map", func(t *testing.T) {
		g, rs := mapTestSet(t, 29, 40_000)
		m, err := NewMapper(eng, MapperOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Build(context.Background(), strings.NewReader(genomeFasta(g)), IndexOptions{}); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultMapConfig(80)
		cfg.BatchReads = 8
		want, err := m.Map(context.Background(), mapReadsOf(rs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.path.extend, _ = shedding(k, eng.extendPrepared, nil)
		retriesBefore := m.path.retryTotal.Value()
		got, err := m.Map(context.Background(), mapReadsOf(rs), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Records) == 0 || !reflect.DeepEqual(got.Records, want.Records) {
			t.Errorf("%d records after %d sheds, want the unshed run's %d", len(got.Records), k, len(want.Records))
		}
		if st := got.Stats; st.Shed != k || st.Retries != k || st.Cells != want.Stats.Cells {
			t.Errorf("stats %+v; want %d sheds and retries and the unshed run's %d cells", st, k, want.Stats.Cells)
		}
		if d := m.path.retryTotal.Value() - retriesBefore; d != k {
			t.Errorf("logan_map_retries_total grew by %v, want %d", d, k)
		}
	})
}

// TestExtendPathShedLimit: a chunk shed on every submission fails after
// overlapMaxRetries re-submissions with an error wrapping ErrOverloaded,
// and a context cancelled while a shed chunk backs off ends the loop at
// once with the context's error: cancelled 10 ms into the 100 ms backoff
// after the eighth shed, the loop never submits a ninth time.
func TestExtendPathShedLimit(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sch := xdrop.LinearScheme(xdrop.DefaultScoring())

	p := newExtendPath(eng, nil, "overlap", "overlap extension chunks")
	extend, calls := shedding(math.MaxInt64, eng.extendPrepared, nil)
	p.extend = extend
	var n shedCount
	_, err = p.retrying(&n)(context.Background(), nil, nil, sch, 20)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err %v, want one wrapping ErrOverloaded", err)
	}
	if c, s, r := calls.Load(), n.shed.Load(), n.retries.Load(); c != overlapMaxRetries+1 || s != c || r != overlapMaxRetries {
		t.Errorf("%d submissions, %d sheds, %d retries; want %d, %d, %d",
			c, s, r, overlapMaxRetries+1, overlapMaxRetries+1, overlapMaxRetries)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	extend, calls = shedding(math.MaxInt64, eng.extendPrepared, func(call int64) {
		if call == 8 {
			time.AfterFunc(10*time.Millisecond, cancel)
		}
	})
	p.extend = extend
	n = shedCount{}
	_, err = p.retrying(&n)(ctx, nil, nil, sch, 20)
	if err != ctx.Err() || !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want the context's error %v", err, ctx.Err())
	}
	if c, s, r := calls.Load(), n.shed.Load(), n.retries.Load(); c != 8 || s != 8 || r != 7 {
		t.Errorf("%d submissions, %d sheds, %d retries after a cancel in the eighth backoff; want 8, 8, 7", c, s, r)
	}
}
