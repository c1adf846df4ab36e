package backend

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logan/internal/seq"
	"logan/internal/xdrop"
)

func testPairs(t *testing.T, n int) []seq.Pair {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	return seq.RandPairSet(rng, seq.PairSetOptions{
		N: n, MinLen: 150, MaxLen: 400, ErrorRate: 0.15, SeedLen: 17, FracRelated: 0.8,
	})
}

// equalizeHybridRates resets every worker estimate to the same value so
// tests can force a genuinely heterogeneous split on small batches.
func equalizeHybridRates(h *Hybrid) {
	for _, w := range h.workers {
		switch be := w.(type) {
		case *CPU:
			be.rate = newRate(1e8)
		case *GPU:
			be.rate = newRate(1e8)
		}
	}
}

// linear is the paper's +1/-1/-1 scheme, the default of every test batch.
var linear = xdrop.LinearScheme(xdrop.DefaultScoring())

func runBackend(t *testing.T, be Backend, pairs []seq.Pair, sch xdrop.Scheme, x int32) ([]xdrop.SeedResult, BatchStats) {
	t.Helper()
	out := make([]xdrop.SeedResult, len(pairs))
	st, err := be.ExtendBatch(context.Background(), pairs, out, sch, x)
	if err != nil {
		t.Fatalf("%s: %v", be.Name(), err)
	}
	return out, st
}

// TestBackendsBitIdentical is the differential acceptance test of the
// backend layer: every implementation — CPU pool, single GPU, multi-GPU
// pool, and the hybrid scheduler — must produce bit-identical results on
// the same batch.
func TestBackendsBitIdentical(t *testing.T) {
	pairs := testPairs(t, 48)

	cpu := NewCPU(2)
	defer cpu.Close()
	gpu, err := NewV100("gpu0")
	if err != nil {
		t.Fatal(err)
	}
	defer gpu.Close()
	multi, err := NewV100MultiGPU(2)
	if err != nil {
		t.Fatal(err)
	}
	defer multi.Close()
	hybrid, err := NewHybrid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer hybrid.Close()

	ref, refStats := runBackend(t, cpu, pairs, linear, 60)
	for _, be := range []Backend{gpu, multi, hybrid} {
		got, st := runBackend(t, be, pairs, linear, 60)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s: pair %d: %+v != cpu %+v", be.Name(), i, got[i], ref[i])
			}
		}
		if st.Cells != refStats.Cells {
			t.Fatalf("%s: cells %d != cpu %d", be.Name(), st.Cells, refStats.Cells)
		}
	}
}

// TestHybridShardBreakdown checks the scheduler's accounting: the shard
// breakdown must cover every pair and cell exactly once, and DeviceTime
// must be the slowest GPU shard.
func TestHybridShardBreakdown(t *testing.T) {
	pairs := testPairs(t, 40)
	h, err := NewHybrid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// Equalize the worker estimates so the LPT split actually spreads
	// this small batch across the CPU pool and both devices (with the
	// realistic priors the V100s would swallow everything).
	equalizeHybridRates(h)

	_, st := runBackend(t, h, pairs, linear, 50)
	if st.Pairs != len(pairs) {
		t.Fatalf("Pairs %d != %d", st.Pairs, len(pairs))
	}
	if len(st.Shards) < 2 {
		t.Fatalf("expected a heterogeneous split, got shards %+v", st.Shards)
	}
	var pairsSum int
	var cellsSum int64
	var maxGPU time.Duration
	seen := map[string]bool{}
	for _, sh := range st.Shards {
		if seen[sh.Backend] {
			t.Fatalf("shard %q reported twice", sh.Backend)
		}
		seen[sh.Backend] = true
		if sh.Pairs <= 0 {
			t.Fatalf("empty shard reported: %+v", sh)
		}
		pairsSum += sh.Pairs
		cellsSum += sh.Cells
		if sh.Backend != "cpu" && sh.Time > maxGPU {
			maxGPU = sh.Time
		}
	}
	if pairsSum != len(pairs) {
		t.Fatalf("shards cover %d pairs, want %d", pairsSum, len(pairs))
	}
	if cellsSum != st.Cells {
		t.Fatalf("shards cover %d cells, batch says %d", cellsSum, st.Cells)
	}
	if st.DeviceTime != maxGPU {
		t.Fatalf("DeviceTime %v != slowest GPU shard %v", st.DeviceTime, maxGPU)
	}
}

// TestHybridAdaptiveThroughput: observed batches must move the worker
// estimates, so the split adapts to measured rates rather than staying on
// the perfmodel priors forever.
func TestHybridAdaptiveThroughput(t *testing.T) {
	h, err := NewHybrid(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	equalizeHybridRates(h)
	cpu := h.workers[0].(*CPU)
	before := cpu.Throughput()
	pairs := testPairs(t, 24)
	out := make([]xdrop.SeedResult, len(pairs))
	if _, err := h.ExtendBatch(context.Background(), pairs, out, linear, 40); err != nil {
		t.Fatal(err)
	}
	// The CPU shard ran for real, so the EWMA must have folded in at
	// least one observation (the prior is a round constant; any real
	// sample perturbs it).
	if cpu.Throughput() == before {
		t.Fatalf("CPU throughput estimate did not adapt from prior %v", before)
	}
	if h.Throughput() <= 0 {
		t.Fatalf("aggregate throughput %v", h.Throughput())
	}
}

func TestBackendThroughputHintsPositive(t *testing.T) {
	cpu := NewCPU(1)
	defer cpu.Close()
	gpu, err := NewV100("gpu0")
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewV100MultiGPU(3)
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Throughput() <= 0 || gpu.Throughput() <= 0 || multi.Throughput() <= 0 {
		t.Fatalf("non-positive throughput hint: cpu %v gpu %v multi %v",
			cpu.Throughput(), gpu.Throughput(), multi.Throughput())
	}
	// A 3-GPU pool's prior must exceed a single device's.
	if multi.Throughput() <= gpu.Throughput() {
		t.Fatalf("multi-GPU prior %v not above single-GPU %v", multi.Throughput(), gpu.Throughput())
	}
}

func TestBackendEmptyBatch(t *testing.T) {
	h, err := NewHybrid(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for _, be := range []Backend{NewCPU(1), h} {
		st, err := be.ExtendBatch(context.Background(), nil, nil, linear, 20)
		if err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		if st.Pairs != 0 || st.Cells != 0 || len(st.Shards) != 0 {
			t.Fatalf("%s: empty batch stats %+v", be.Name(), st)
		}
	}
}

func TestBackendLengthMismatch(t *testing.T) {
	gpu, err := NewV100("gpu0")
	if err != nil {
		t.Fatal(err)
	}
	pairs := testPairs(t, 3)
	if _, err := gpu.ExtendBatch(context.Background(), pairs, make([]xdrop.SeedResult, 2), linear, 20); err == nil {
		t.Fatal("accepted mismatched out length")
	}
	h, err := NewHybrid(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.ExtendBatch(context.Background(), pairs, make([]xdrop.SeedResult, 2), linear, 20); err == nil {
		t.Fatal("hybrid accepted mismatched out length")
	}
}

// TestBackendsClosed: after Close, every implementation must reject
// further batches with the one sentinel, whatever else is wrong with the
// batch — the closed check comes first, so a closed GPU handed an affine
// batch says "closed", not "unsupported scheme".
func TestBackendsClosed(t *testing.T) {
	gpu, err := NewV100("gpu0")
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewV100MultiGPU(2)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := NewHybrid(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pairs := testPairs(t, 2)
	for _, be := range []Backend{NewCPU(1), gpu, multi, hyb} {
		be.Close()
		be.Close() // idempotent
		affine := xdrop.AffineScheme(xdrop.AffineScoring{Match: 1, Mismatch: -1, GapOpen: -2, GapExtend: -1})
		for _, sch := range []xdrop.Scheme{linear, affine} {
			_, err := be.ExtendBatch(context.Background(), pairs, make([]xdrop.SeedResult, 2), sch, 20)
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("closed %s backend, %v batch: err %v, want ErrClosed", be.Name(), sch.Kind, err)
			}
		}
	}
}

func TestRateEWMA(t *testing.T) {
	r := newRate(100)
	r.observe(0, time.Second) // ignored: no cells
	r.observe(10, 0)          // ignored: no duration
	if got := r.estimate(); got != 100 {
		t.Fatalf("degenerate samples moved the estimate to %v", got)
	}
	r.observe(200, time.Second) // sample rate 200
	got := r.estimate()
	if got <= 100 || got >= 200 {
		t.Fatalf("EWMA estimate %v not between prior and sample", got)
	}
}

// TestSupportsContract pins the scoring-family capability matrix: the GPU
// backends are linear-DNA only (the paper's kernel), the CPU pool runs
// every family, and the hybrid inherits the union of its workers.
func TestSupportsContract(t *testing.T) {
	cpu := NewCPU(1)
	defer cpu.Close()
	gpu, err := NewV100("gpu0")
	if err != nil {
		t.Fatal(err)
	}
	defer gpu.Close()
	multi, err := NewV100MultiGPU(2)
	if err != nil {
		t.Fatal(err)
	}
	defer multi.Close()
	hyb, err := NewHybrid(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hyb.Close()
	for _, kind := range []xdrop.SchemeKind{xdrop.SchemeLinear, xdrop.SchemeAffine, xdrop.SchemeMatrix} {
		if !cpu.Supports(kind) {
			t.Errorf("cpu must support %v", kind)
		}
		if !hyb.Supports(kind) {
			t.Errorf("hybrid must support %v", kind)
		}
		wantGPU := kind == xdrop.SchemeLinear
		if gpu.Supports(kind) != wantGPU || multi.Supports(kind) != wantGPU {
			t.Errorf("%v: gpu support %v / multi %v, want %v",
				kind, gpu.Supports(kind), multi.Supports(kind), wantGPU)
		}
	}
}

// TestGPUUnsupportedScheme: non-linear batches on the pure-GPU backends
// must fail with ErrUnsupportedScheme — the documented restriction, not a
// crash or a silent linear fallback.
func TestGPUUnsupportedScheme(t *testing.T) {
	pairs := testPairs(t, 2)
	out := make([]xdrop.SeedResult, len(pairs))
	gpu, err := NewV100("gpu0")
	if err != nil {
		t.Fatal(err)
	}
	defer gpu.Close()
	multi, err := NewV100MultiGPU(2)
	if err != nil {
		t.Fatal(err)
	}
	defer multi.Close()
	affine := xdrop.AffineScheme(xdrop.AffineScoring{Match: 1, Mismatch: -1, GapOpen: -2, GapExtend: -1})
	matrix := xdrop.MatrixScheme(xdrop.Blosum62(-6))
	for _, be := range []Backend{gpu, multi} {
		for _, sch := range []xdrop.Scheme{affine, matrix} {
			_, err := be.ExtendBatch(context.Background(), pairs, out, sch, 30)
			if !errors.Is(err, ErrUnsupportedScheme) {
				t.Errorf("%s family %v: err %v, want ErrUnsupportedScheme", be.Name(), sch.Kind, err)
			}
		}
	}
}

// TestHybridRoutesNonLinearToCPU: the hybrid must execute affine and
// matrix batches by routing every pair to CPU shards, bit-identical to
// the pure-CPU backend, with no GPU shard in the breakdown.
func TestHybridRoutesNonLinearToCPU(t *testing.T) {
	pairs := testPairs(t, 24)
	cpu := NewCPU(2)
	defer cpu.Close()
	h, err := NewHybrid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	equalizeHybridRates(h) // GPUs would win the whole batch otherwise

	affine := xdrop.AffineScheme(xdrop.AffineScoring{Match: 1, Mismatch: -1, GapOpen: -3, GapExtend: -1})
	ref, refStats := runBackend(t, cpu, pairs, affine, 40)
	got, st := runBackend(t, h, pairs, affine, 40)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("pair %d: hybrid %+v != cpu %+v", i, got[i], ref[i])
		}
	}
	if st.Cells != refStats.Cells {
		t.Fatalf("cells %d != cpu %d", st.Cells, refStats.Cells)
	}
	for _, sh := range st.Shards {
		if sh.Backend != "cpu" {
			t.Fatalf("affine batch landed on %q: %+v", sh.Backend, st.Shards)
		}
	}
	if st.DeviceTime != 0 {
		t.Fatalf("affine batch reported device time %v", st.DeviceTime)
	}
	// A linear batch on the same engine still uses the whole worker set.
	lin, linStats := runBackend(t, h, pairs, linear, 40)
	cpuLin, _ := runBackend(t, cpu, pairs, linear, 40)
	for i := range lin {
		if lin[i] != cpuLin[i] {
			t.Fatalf("linear pair %d diverged after non-linear batch", i)
		}
	}
	gpuShards := 0
	for _, sh := range linStats.Shards {
		if sh.Backend != "cpu" {
			gpuShards++
		}
	}
	if gpuShards == 0 {
		t.Fatalf("linear batch used no GPU shard: %+v", linStats.Shards)
	}
}

// TestBackendContextCanceled: an already-canceled context must fail the
// batch with the context's error on every backend.
func TestBackendContextCanceled(t *testing.T) {
	pairs := testPairs(t, 4)
	cpu := NewCPU(1)
	defer cpu.Close()
	gpu, err := NewV100("gpu0")
	if err != nil {
		t.Fatal(err)
	}
	defer gpu.Close()
	hyb, err := NewHybrid(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hyb.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, be := range []Backend{cpu, gpu, hyb} {
		out := make([]xdrop.SeedResult, len(pairs))
		if _, err := be.ExtendBatch(ctx, pairs, out, linear, 30); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err %v, want context.Canceled", be.Name(), err)
		}
	}
}

// skewedPairs is the golden batch of the executor tests: 6 long pairs and
// 58 short ones from one seeded stream, the length-skewed shape §IV-C's
// by-length split exists for.
func skewedPairs() []seq.Pair {
	rng := rand.New(rand.NewSource(19))
	pairs := seq.RandPairSet(rng, seq.PairSetOptions{N: 6, MinLen: 2000, MaxLen: 3000, ErrorRate: 0.15, SeedLen: 17})
	return append(pairs, seq.RandPairSet(rng, seq.PairSetOptions{
		N: 58, MinLen: 100, MaxLen: 400, ErrorRate: 0.15, SeedLen: 17, FracRelated: 0.8,
	})...)
}

// TestMultiGPUGoldenSplit pins the homogeneous capacity rule as a
// contract: for the seeded skewed batch at X=100, gpu[2] and gpu[3] must
// report exactly these per-shard (pairs, cells, modeled DeviceTime) —
// recorded from the paper's by-length LPT over equal devices — and report
// them again on a repeat (live throughput estimates must not leak into a
// device set's split).
func TestMultiGPUGoldenSplit(t *testing.T) {
	pairs := skewedPairs()
	golden := map[int][]ShardStats{
		2: {
			{Backend: "gpu0", Pairs: 32, Cells: 1931051, Time: 4014338, Kernel: "gpu"},
			{Backend: "gpu1", Pairs: 32, Cells: 1935250, Time: 3778176, Kernel: "gpu"},
		},
		3: {
			{Backend: "gpu0", Pairs: 21, Cells: 1309023, Time: 4013994, Kernel: "gpu"},
			{Backend: "gpu1", Pairs: 22, Cells: 1286354, Time: 3777840, Kernel: "gpu"},
			{Backend: "gpu2", Pairs: 21, Cells: 1270924, Time: 3659750, Kernel: "gpu"},
		},
	}
	for g, want := range golden {
		be, err := NewV100MultiGPU(g)
		if err != nil {
			t.Fatal(err)
		}
		defer be.Close()
		for rep := 0; rep < 2; rep++ {
			_, st := runBackend(t, be, pairs, linear, 100)
			if st.Cells != 3866301 || st.DeviceTime != want[0].Time {
				t.Fatalf("%s rep %d: cells %d device time %d", be.Name(), rep, st.Cells, st.DeviceTime)
			}
			if len(st.Shards) != len(want) {
				t.Fatalf("%s rep %d: shards %+v", be.Name(), rep, st.Shards)
			}
			for i := range want {
				if st.Shards[i] != want[i] {
					t.Errorf("%s rep %d shard %d: %+v, want %+v", be.Name(), rep, i, st.Shards[i], want[i])
				}
			}
		}
	}
}

// TestMultiGPUMatchesSingle: splitting across devices never changes a
// result — 1, 2 and 4 devices agree with one device on every field.
func TestMultiGPUMatchesSingle(t *testing.T) {
	pairs := testPairs(t, 30)
	single, err := NewV100("gpu0")
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	want, wantStats := runBackend(t, single, pairs, linear, 50)
	for _, g := range []int{1, 2, 4} {
		be, err := NewV100MultiGPU(g)
		if err != nil {
			t.Fatal(err)
		}
		got, st := runBackend(t, be, pairs, linear, 50)
		be.Close()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("g=%d pair %d: %+v != %+v", g, i, got[i], want[i])
			}
		}
		if st.Cells != wantStats.Cells {
			t.Fatalf("g=%d: cells %d != %d", g, st.Cells, wantStats.Cells)
		}
	}
}

// TestMultiGPUScalesDeviceTime: the modeled completion time is the slowest
// shard, so it must fall as devices are added.
func TestMultiGPUScalesDeviceTime(t *testing.T) {
	pairs := skewedPairs()
	var prev time.Duration
	for _, g := range []int{1, 2, 4} {
		be, err := NewV100MultiGPU(g)
		if err != nil {
			t.Fatal(err)
		}
		_, st := runBackend(t, be, pairs, linear, 100)
		be.Close()
		if prev != 0 && st.DeviceTime >= prev {
			t.Fatalf("%d-GPU device time %v not below %v", g, st.DeviceTime, prev)
		}
		prev = st.DeviceTime
	}
}

// TestMoreGPUsThanPairs: idle devices report no shard and drop no pair.
func TestMoreGPUsThanPairs(t *testing.T) {
	pairs := testPairs(t, 3)
	be, err := NewV100MultiGPU(6)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	cpu := NewCPU(1)
	defer cpu.Close()
	got, st := runBackend(t, be, pairs, linear, 20)
	want, _ := runBackend(t, cpu, pairs, linear, 20)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: %+v != %+v", i, got[i], want[i])
		}
	}
	if len(st.Shards) != len(pairs) {
		t.Fatalf("3 pairs on 6 devices: shards %+v", st.Shards)
	}
	if _, err := NewV100MultiGPU(0); err == nil {
		t.Fatal("accepted an empty device set")
	}
}

// fakeWorker is a Backend whose ExtendBatch announces itself and then
// blocks until released, so a test can observe which workers hold a batch
// at the same moment.
type fakeWorker struct {
	name    string
	kinds   []xdrop.SchemeKind
	entered chan string
	release chan struct{}
	calls   atomic.Int32
}

func (f *fakeWorker) Name() string        { return f.name }
func (f *fakeWorker) Throughput() float64 { return 1e8 }
func (f *fakeWorker) Close() error        { return nil }
func (f *fakeWorker) Supports(k xdrop.SchemeKind) bool {
	return slices.Contains(f.kinds, k)
}

func (f *fakeWorker) ExtendBatch(_ context.Context, pairs []seq.Pair, out []xdrop.SeedResult, _ xdrop.Scheme, _ int32) (BatchStats, error) {
	f.calls.Add(1)
	if f.entered != nil {
		f.entered <- f.name
		<-f.release
	}
	for i := range pairs {
		out[i].Score = int32(pairs[i].ID)
	}
	return BatchStats{Pairs: len(pairs), Shards: []ShardStats{{Backend: f.name, Pairs: len(pairs)}}}, nil
}

// TestExecutorBatchesOverlapAcrossWorkers: the executor holds no lock of
// its own, so two concurrent batches are inside two different workers at
// the same moment (each batch's shards also enter their workers before any
// worker returns). Four entries — two batches times two workers — must
// arrive before a single release.
func TestExecutorBatchesOverlapAcrossWorkers(t *testing.T) {
	entered, release := make(chan string, 4), make(chan struct{})
	all := []xdrop.SchemeKind{xdrop.SchemeLinear}
	w0 := &fakeWorker{name: "w0", kinds: all, entered: entered, release: release}
	w1 := &fakeWorker{name: "w1", kinds: all, entered: entered, release: release}
	h, err := NewHybridOver(w0, w1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	pairs := testPairs(t, 8)
	for i := range pairs {
		pairs[i].ID = i
	}
	var wg sync.WaitGroup
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]xdrop.SeedResult, len(pairs))
			if _, err := h.ExtendBatch(context.Background(), pairs, out, linear, 20); err != nil {
				t.Error(err)
				return
			}
			for i := range out {
				if out[i].Score != int32(i) {
					t.Errorf("pair %d gathered out of order: %d", i, out[i].Score)
					return
				}
			}
		}()
	}
	seen := map[string]int{}
	for i := 0; i < 4; i++ {
		select {
		case name := <-entered:
			seen[name]++
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of 4 shard entries arrived: batches serialize on the executor (%v)", i, seen)
		}
	}
	if seen["w0"] != 2 || seen["w1"] != 2 {
		t.Fatalf("entries %v, want both batches on both workers", seen)
	}
	close(release)
	wg.Wait()
}

// TestExecutorNeverRoutesUnsupportedFamily: a worker that does not
// Support a batch's family is never called — not for a share of a mixed
// set's batch, and not when no worker is eligible at all.
func TestExecutorNeverRoutesUnsupportedFamily(t *testing.T) {
	dev := &fakeWorker{name: "dev", kinds: []xdrop.SchemeKind{xdrop.SchemeLinear}}
	host := &fakeWorker{name: "host", kinds: []xdrop.SchemeKind{xdrop.SchemeLinear, xdrop.SchemeAffine}}
	h, err := NewHybridOver(dev, host)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	pairs := testPairs(t, 16)
	out := make([]xdrop.SeedResult, len(pairs))
	affine := xdrop.AffineScheme(xdrop.AffineScoring{Match: 1, Mismatch: -1, GapOpen: -2, GapExtend: -1})
	st, err := h.ExtendBatch(context.Background(), pairs, out, affine, 30)
	if err != nil {
		t.Fatal(err)
	}
	if dev.calls.Load() != 0 || len(st.Shards) != 1 || st.Shards[0].Backend != "host" || st.Shards[0].Pairs != len(pairs) {
		t.Fatalf("affine batch: dev calls %d, shards %+v", dev.calls.Load(), st.Shards)
	}
	_, err = h.ExtendBatch(context.Background(), pairs, out, xdrop.MatrixScheme(xdrop.Blosum62(-6)), 30)
	if !errors.Is(err, ErrUnsupportedScheme) {
		t.Fatalf("matrix batch with no eligible worker: err %v", err)
	}
	if dev.calls.Load() != 0 || host.calls.Load() != 1 {
		t.Fatalf("ineligible workers were called: dev %d host %d", dev.calls.Load(), host.calls.Load())
	}
}

// TestMultiGPUConcurrentBatches drives one device set from several
// goroutines: shards interleave on the per-device locks, results and the
// modeled DeviceTime stay those of a lone batch (under -race this vets the
// executor's pooled staging and gather paths).
func TestMultiGPUConcurrentBatches(t *testing.T) {
	be, err := NewV100MultiGPU(2)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	pairs := testPairs(t, 24)
	want, wantStats := runBackend(t, be, pairs, linear, 40)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]xdrop.SeedResult, len(pairs))
			st, err := be.ExtendBatch(context.Background(), pairs, out, linear, 40)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range want {
				if out[i] != want[i] {
					t.Errorf("concurrent result diverged at %d", i)
					return
				}
			}
			if st.DeviceTime != wantStats.DeviceTime {
				t.Errorf("DeviceTime not stable: %v vs %v", st.DeviceTime, wantStats.DeviceTime)
			}
		}()
	}
	wg.Wait()
}
