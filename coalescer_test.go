package logan

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logan/internal/backend"
	"logan/internal/seq"
	"logan/internal/telemetry"
	"logan/internal/xdrop"
)

// cfgT is the default per-request configuration of the coalescer tests.
var cfgT = DefaultConfig(50)

// makePairsSeed is makePairs with a caller-chosen seed, so concurrent
// clients in the coalescer tests carry distinct workloads.
func makePairsSeed(n int, seed int64) []Pair {
	rng := rand.New(rand.NewSource(seed))
	raw := seq.RandPairSet(rng, seq.PairSetOptions{
		N: n, MinLen: 100, MaxLen: 300, ErrorRate: 0.15, SeedLen: 17,
	})
	out := make([]Pair, n)
	for i, p := range raw {
		out[i] = Pair{
			Query: []byte(p.Query), Target: []byte(p.Target),
			SeedQ: p.SeedQPos, SeedT: p.SeedTPos, SeedLen: p.SeedLen,
		}
	}
	return out
}

// gatedBackend lets a test keep an engine batch in flight: while held is
// set, every batch announces itself on entered and then waits for one
// token on release before it runs.
type gatedBackend struct {
	backend.Backend
	held             atomic.Bool
	entered, release chan struct{}
}

func (g *gatedBackend) ExtendBatch(ctx context.Context, pairs []seq.Pair, out []xdrop.SeedResult, sch xdrop.Scheme, x int32) (backend.BatchStats, error) {
	if g.held.Load() {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.Backend.ExtendBatch(ctx, pairs, out, sch, x)
}

// open lets the batch in flight run and stops holding later ones.
func (g *gatedBackend) open() {
	g.held.Store(false)
	g.release <- struct{}{}
}

// holdBatches puts a holding gatedBackend under eng. Call it before the
// engine is shared with another goroutine.
func holdBatches(eng *Aligner) *gatedBackend {
	g := &gatedBackend{Backend: eng.be, entered: make(chan struct{}), release: make(chan struct{})}
	g.held.Store(true)
	eng.be = g
	return g
}

// enqueue queues a request of n pairs on the (ten, class, cfg) lane the way
// Align does after admission, but from the test's own goroutine, so queue
// states are built deterministically. With seed < 0 the pairs are blanks
// for tests that only call take; otherwise they are real, and the result
// arrives on the returned waiter's channel.
func enqueue(t *testing.T, c *Coalescer, ten *Tenant, class priorityClass, cfg Config, n int, seed int64) *coalesceWaiter {
	t.Helper()
	in := make([]seq.Pair, n)
	if seed >= 0 {
		sc, err := c.eng.ingest(makePairsSeed(n, seed), cfg)
		if err != nil {
			t.Fatal(err)
		}
		in = sc.in
	}
	w := &coalesceWaiter{
		in: in, out: make([]xdrop.SeedResult, n), enq: time.Now(), ctx: ctxb,
		tt: c.tenantTele(ten), ch: make(chan coalesceResult, 1),
	}
	c.mu.Lock()
	c.q.enqueue(laneKey{ten: ten, class: class, cfg: cfg.key()}, w)
	c.mu.Unlock()
	select {
	case c.kick <- struct{}{}:
	default:
	}
	return w
}

// TestCoalescerBitIdentical is the scatter-correctness acceptance test:
// N concurrent clients with distinct pair sets must each get exactly
// their own alignments back, bit-identical to a direct engine call of the
// same pairs, on every backend. Run with -race this also exercises the
// enqueue/flush/scatter paths for data races.
func TestCoalescerBitIdentical(t *testing.T) {
	for _, bk := range []struct {
		name string
		opt  EngineOptions
	}{
		{"CPU", EngineOptions{}},
		{"GPU", EngineOptions{Backend: GPU, GPUs: 2}},
		{"Hybrid", EngineOptions{Backend: Hybrid, GPUs: 2}},
	} {
		t.Run(bk.name, func(t *testing.T) {
			eng, err := NewAligner(bk.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			const clients = 12
			inputs := make([][]Pair, clients)
			want := make([][]Alignment, clients)
			for c := range inputs {
				inputs[c] = makePairsSeed(3+c%5, int64(1000+c))
				w, _, err := eng.Align(ctxb, inputs[c], cfgT)
				if err != nil {
					t.Fatal(err)
				}
				want[c] = w
			}

			coal := eng.NewCoalescer(CoalescerOptions{
				MaxBatchPairs: 16,
				// This test pins bit-identity, not admission: the tiny batch
				// target makes the adaptive one-batch floor smaller than the
				// concurrent load, so give the controller unlimited delay.
				TargetDelay: time.Hour,
			})
			defer coal.Close()

			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for round := 0; round < 4; round++ {
						got, st, err := coal.Align(ctxb, inputs[c], cfgT)
						if err != nil {
							errs <- err
							return
						}
						if len(got) != len(want[c]) {
							t.Errorf("client %d: %d alignments, want %d", c, len(got), len(want[c]))
							return
						}
						var cells int64
						for i := range got {
							if got[i] != want[c][i] {
								t.Errorf("client %d pair %d: coalesced %+v != direct %+v",
									c, i, got[i], want[c][i])
								return
							}
							cells += got[i].Cells
						}
						if st.Pairs != len(inputs[c]) || st.Cells != cells {
							t.Errorf("client %d: stats %+v, want pairs %d cells %d",
								c, st, len(inputs[c]), cells)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			m := coal.Metrics()
			if m.MergedBatches == 0 || m.MergedRequests != clients*4 {
				t.Fatalf("metrics %+v: want %d requests over >0 merged batches", m, clients*4)
			}
			if m.QueuedRequests != 0 || m.QueuedPairs != 0 || m.QueuedLanes != 0 {
				t.Fatalf("queue not drained: %+v", m)
			}
		})
	}
}

// TestCoalescerMixedConfigs is the request-scoping acceptance test for
// the coalescing layer (run with -race in CI): concurrent clients with
// interleaved linear, per-request-X, affine and BLOSUM62 configurations
// share one engine and one coalescer, every result must be bit-identical
// to a dedicated engine running that client's config, and same-config
// traffic must still merge (mergedBatches < requests).
func TestCoalescerMixedConfigs(t *testing.T) {
	eng, err := NewAligner(EngineOptions{Backend: Hybrid, GPUs: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	type client struct {
		pairs []Pair
		cfg   Config
		want  []Alignment
	}
	configs := []Config{
		DefaultConfig(50),
		DefaultConfig(120), // same scheme, different X: distinct group
		{X: 50, Scoring: AffineScoring(1, -1, -2, -1)},
		{X: 40, Scoring: MatrixScoring(Blosum62(-6))},
	}
	const clients = 16
	cl := make([]client, clients)
	for c := range cl {
		cfg := configs[c%len(configs)]
		var pairs []Pair
		if cfg.Scoring.Mode() == "matrix" {
			pairs = makeProteinPairs(3+c%3, int64(300+c))
		} else {
			pairs = makePairsSeed(3+c%3, int64(300+c))
		}
		// Dedicated engine per config: the bit-identity reference.
		ded, err := NewAligner(eng.Engine())
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ded.Align(ctxb, pairs, cfg)
		ded.Close()
		if err != nil {
			t.Fatal(err)
		}
		cl[c] = client{pairs: pairs, cfg: cfg, want: want}
	}

	// The first batch is held in flight until every client's first request
	// has arrived, so the merge assertion below does not depend on how the
	// scheduler interleaves the clients.
	g := holdBatches(eng)
	coal := eng.NewCoalescer(CoalescerOptions{
		MaxBatchPairs: 12,
	})
	defer coal.Close()

	const rounds = 4
	var wg sync.WaitGroup
	for c := range cl {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				got, _, err := coal.Align(ctxb, cl[c].pairs, cl[c].cfg)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				for i := range got {
					if got[i] != cl[c].want[i] {
						t.Errorf("client %d pair %d (%s/X=%d): coalesced %+v != dedicated %+v",
							c, i, cl[c].cfg.Scoring.Mode(), cl[c].cfg.X, got[i], cl[c].want[i])
						return
					}
				}
			}
		}(c)
	}
	<-g.entered
	waitFor(t, func() bool { return coal.Metrics().Enqueued == clients })
	g.open()
	wg.Wait()

	m := coal.Metrics()
	if m.MergedRequests != clients*rounds {
		t.Fatalf("metrics %+v: want %d merged requests", m, clients*rounds)
	}
	if m.MergedBatches == 0 || m.MergedBatches >= int64(clients*rounds) {
		t.Fatalf("mixed-config traffic did not merge: %d batches for %d requests",
			m.MergedBatches, clients*rounds)
	}
	if m.QueuedLanes != 0 || m.QueuedPairs != 0 {
		t.Fatalf("queue not drained: %+v", m)
	}
}

// TestCoalescerSizeFlush checks where a batch is cut: whole requests in
// arrival order until MaxBatchPairs is covered. Three 4-pair requests
// waiting against an 8-pair cap run as one batch of two and one of one.
func TestCoalescerSizeFlush(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// No flusher yet: the requests pile up first.
	coal := eng.newCoalescer(CoalescerOptions{MaxBatchPairs: 8})
	var ws []*coalesceWaiter
	for c := 0; c < 3; c++ {
		ws = append(ws, enqueue(t, coal, anonymousTenant, classInteractive, cfgT, 4, int64(c)))
	}
	coal.start()
	for _, w := range ws {
		if r := <-w.ch; r.err != nil || w.out[3].Cells() == 0 {
			t.Fatalf("result %+v, last cells %d", r, w.out[3].Cells())
		}
	}
	coal.Close()
	m := coal.Metrics()
	if m.MergedBatches != 2 || m.MaxMergedPairs != 8 || m.MergedRequests != 3 {
		t.Fatalf("metrics %+v: want an 8-pair batch of 2 requests, then the third alone", m)
	}
}

// TestCoalescerSizeFlushPerConfig: only requests of one configuration
// share a batch, so two waiting requests under different configs run as
// two batches even though together they fit the cap.
func TestCoalescerSizeFlushPerConfig(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	coal := eng.newCoalescer(CoalescerOptions{MaxBatchPairs: 8})
	a := enqueue(t, coal, anonymousTenant, classInteractive, cfgT, 4, 0)
	b := enqueue(t, coal, anonymousTenant, classInteractive, DefaultConfig(77), 4, 1)
	coal.start()
	for _, w := range []*coalesceWaiter{a, b} {
		if r := <-w.ch; r.err != nil {
			t.Fatal(r.err)
		}
	}
	coal.Close()
	if m := coal.Metrics(); m.MergedBatches != 2 || m.MaxMergedPairs != 4 {
		t.Fatalf("metrics %+v: want two single-config 4-pair batches", m)
	}
}

// TestCoalescerScatterPerRequest: the flusher runs a merged batch once
// and each rider finishes its own request, so k traced riders add one
// kernel sample and k scatter samples to the stage family, and every
// rider's trace shows the batch's partition and kernel spans and its own
// scatter.
func TestCoalescerScatterPerRequest(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	coal := eng.newCoalescer(CoalescerOptions{MaxBatchPairs: 64})
	count := func(stage string) int64 {
		return eng.tele.Histogram("logan_stage_duration_seconds", "", nil, telemetry.L("stage", stage)).Count()
	}
	kernel0, scatter0 := count(telemetry.StageKernel), count(telemetry.StageScatter)

	const k = 4
	trs := make([]*telemetry.Trace, k)
	errs := make(chan error, k)
	for i := range trs {
		trs[i] = eng.stages.StartTrace()
		ctx := telemetry.WithTrace(ctxb, trs[i])
		pairs := makePairsSeed(3, int64(60+i))
		go func() {
			_, _, err := coal.Align(ctx, pairs, cfgT)
			errs <- err
		}()
	}
	waitFor(t, func() bool { return coal.Metrics().QueuedRequests == k })
	coal.start()
	for range trs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	coal.Close()
	if m := coal.Metrics(); m.MergedBatches != 1 || m.MergedRequests != k {
		t.Fatalf("metrics %+v: want the %d riders in one batch", m, k)
	}
	if d := count(telemetry.StageKernel) - kernel0; d != 1 {
		t.Fatalf("%d kernel samples, want 1 for the one batch", d)
	}
	if d := count(telemetry.StageScatter) - scatter0; d != k {
		t.Fatalf("%d scatter samples, want %d, one per rider", d, k)
	}
	for i, tr := range trs {
		seen := map[string]int{}
		for _, sp := range tr.Spans() {
			seen[sp.Stage]++
		}
		for _, stage := range []string{telemetry.StagePartition, telemetry.StageKernel, telemetry.StageScatter} {
			if seen[stage] != 1 {
				t.Fatalf("rider %d: trace %v has %d %s spans, want 1", i, tr.Spans(), seen[stage], stage)
			}
		}
	}
}

// TestCoalescerIdleRunsAtOnce is the work-conserving half of the flush
// rule: a lone request on an idle Coalescer, far below the batch cap, runs
// with no second arrival and no timer to release it. (A flusher that
// waited for either would hang here until the test timeout.)
func TestCoalescerIdleRunsAtOnce(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	coal := eng.NewCoalescer(CoalescerOptions{MaxBatchPairs: 1 << 20})
	defer coal.Close()
	if _, _, err := coal.Align(ctxb, makePairsSeed(2, 42), cfgT); err != nil {
		t.Fatal(err)
	}
	if m := coal.Metrics(); m.MergedBatches != 1 || m.MergedRequests != 1 || m.Enqueued != 1 {
		t.Fatalf("metrics %+v: want the lone request as its own batch", m)
	}
}

// TestCoalescerMergesWhileBusy is the other half: requests that arrive
// while a batch is executing leave together in the next one.
func TestCoalescerMergesWhileBusy(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	g := holdBatches(eng)
	coal := eng.NewCoalescer(CoalescerOptions{MaxBatchPairs: 64})
	defer coal.Close()

	first := enqueue(t, coal, anonymousTenant, classInteractive, cfgT, 2, 1)
	<-g.entered // the first request is executing, alone
	var late []*coalesceWaiter
	for i := 0; i < 3; i++ {
		late = append(late, enqueue(t, coal, anonymousTenant, classInteractive, cfgT, 3, int64(10+i)))
	}
	g.open()
	for _, w := range append(late, first) {
		if r := <-w.ch; r.err != nil {
			t.Fatal(r.err)
		}
	}
	m := coal.Metrics()
	if m.MergedBatches != 2 || m.MergedRequests != 4 || m.MaxMergedPairs != 9 {
		t.Fatalf("metrics %+v: want the 3 late requests merged into one 9-pair batch", m)
	}
}

// TestCoalescerShed checks admission control end to end: once a tenant's
// share of the queue is full (across all its configs), further requests
// fail fast with ErrOverloaded, and Close still drains the queued ones.
func TestCoalescerShed(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// No flusher until the end, so the queue holds what is admitted; a
	// target no queue can meet leaves exactly the one-batch floor, 4 pairs.
	coal := calibratedCoalescer(t, eng, CoalescerOptions{MaxBatchPairs: 4, TargetDelay: time.Nanosecond})

	queued := make(chan error, 1)
	go func() {
		_, _, err := coal.Align(ctxb, makePairsSeed(3, 1), cfgT)
		queued <- err
	}()
	<-coal.kick // the 3 pairs are queued

	// The share is the tenant's: a different config cannot squeeze past it.
	if _, _, err := coal.Align(ctxb, makePairsSeed(2, 2), DefaultConfig(99)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-share request: err %v, want ErrOverloaded", err)
	}
	// A request that still fits the floor is admitted; Close runs it below.
	fits := make(chan error, 1)
	go func() {
		_, _, err := coal.Align(ctxb, makePairsSeed(1, 3), cfgT)
		fits <- err
	}()
	<-coal.kick
	if m := coal.Metrics(); m.QueuedPairs != 4 || m.QueuedRequests != 2 {
		t.Fatalf("metrics %+v: want both admitted requests queued", m)
	}

	coal.start()
	coal.Close()
	if err := <-queued; err != nil {
		t.Fatalf("queued request not drained on Close: %v", err)
	}
	if err := <-fits; err != nil {
		t.Fatalf("fitting request not drained on Close: %v", err)
	}
	m := coal.Metrics()
	if m.Shed != 1 || m.ShedDelay != 1 || m.MergedRequests != 2 {
		t.Fatalf("metrics %+v: want 1 delay shed and both admitted requests run", m)
	}
	if _, _, err := coal.Align(ctxb, makePairsSeed(1, 4), cfgT); !errors.Is(err, ErrClosed) {
		t.Fatalf("align after Close: err %v, want ErrClosed", err)
	}
}

// TestCoalescerValidation checks that admission-time validation confines a
// bad pair or config to its own request: a concurrent valid request in
// the same lane still succeeds.
func TestCoalescerValidation(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	coal := eng.NewCoalescer(CoalescerOptions{MaxBatchPairs: 1 << 20})
	defer coal.Close()

	good := make(chan error, 1)
	go func() {
		_, _, err := coal.Align(ctxb, makePairsSeed(2, 9), cfgT)
		good <- err
	}()

	bad := []Pair{{Query: []byte("AXGT"), Target: []byte("ACGT"), SeedLen: 2}}
	if _, _, err := coal.Align(ctxb, bad, cfgT); err == nil || !strings.Contains(err.Error(), "pair 0 query") {
		t.Fatalf("invalid base: err %v", err)
	}
	badSeed := []Pair{{Query: []byte("ACGT"), Target: []byte("ACGT"), SeedQ: 3, SeedLen: 4}}
	if _, _, err := coal.Align(ctxb, badSeed, cfgT); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("out-of-range seed: err %v", err)
	}
	// SeedQ+SeedLen overflows int: must be rejected at admission, not
	// panic the flusher.
	overflow := []Pair{{Query: []byte("ACGT"), Target: []byte("ACGT"),
		SeedQ: math.MaxInt - 1, SeedLen: 4}}
	if _, _, err := coal.Align(ctxb, overflow, cfgT); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("overflowing seed: err %v", err)
	}
	// An invalid configuration is rejected at admission, too.
	if _, _, err := coal.Align(ctxb, makePairsSeed(1, 10), Config{X: 10}); err == nil {
		t.Fatal("unset scoring accepted")
	}
	if err := <-good; err != nil {
		t.Fatalf("valid request failed alongside invalid ones: %v", err)
	}
}

// TestCoalescerDirectBypass checks that engine-sized requests skip the
// queue: they return with no flusher running at all, and are counted as
// direct.
func TestCoalescerDirectBypass(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	coal := eng.newCoalescer(CoalescerOptions{MaxBatchPairs: 4})

	pairs := makePairsSeed(4, 5)
	want, _, err := eng.Align(ctxb, pairs, cfgT)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := coal.Align(ctxb, pairs, cfgT)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: %+v != %+v", i, got[i], want[i])
		}
	}
	if st.Pairs != 4 {
		t.Fatalf("stats %+v", st)
	}
	m := coal.Metrics()
	if m.Direct != 1 || m.Enqueued != 0 {
		t.Fatalf("metrics %+v: want a direct bypass, no enqueue", m)
	}
}

// TestCoalescerContextCancel checks that a caller can abandon the wait: a
// canceled context returns immediately even though the pairs are queued
// with no flusher to run them.
func TestCoalescerContextCancel(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	coal := eng.newCoalescer(CoalescerOptions{MaxBatchPairs: 1 << 20})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-coal.kick // the request is queued
		cancel()
	}()
	if _, _, err := coal.Align(ctx, makePairsSeed(1, 6), cfgT); !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
}

// TestCoalescerEmptyRequest checks the zero-pair fast path.
func TestCoalescerEmptyRequest(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	coal := eng.NewCoalescer(CoalescerOptions{})
	defer coal.Close()
	out, st, err := coal.Align(ctxb, nil, cfgT)
	if err != nil || len(out) != 0 || st.Pairs != 0 {
		t.Fatalf("empty request: out %v, st %+v, err %v", out, st, err)
	}
}

// waitFor polls cond until it holds or a long deadline expires: for
// states reached by client goroutines racing a live flusher. With no
// flusher started, receive the enqueue's wake-up from c.kick instead.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescerUnsupportedConfigShedsAtAdmission: a config the engine's
// backend cannot run must fail immediately with ErrUnsupportedConfig —
// never queueing, never consuming queue share.
func TestCoalescerUnsupportedConfigShedsAtAdmission(t *testing.T) {
	eng, err := NewAligner(EngineOptions{Backend: GPU})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Supports(Config{X: 1, Scoring: AffineScoring(1, -1, -2, -1)}) {
		t.Fatal("GPU engine claims affine support")
	}
	if !eng.Supports(DefaultConfig(1)) {
		t.Fatal("GPU engine denies linear support")
	}
	// No flusher: a request that queued instead of failing would hang.
	coal := eng.newCoalescer(CoalescerOptions{MaxBatchPairs: 1 << 20})

	_, _, err = coal.Align(ctxb, makePairsSeed(2, 1), Config{X: 30, Scoring: AffineScoring(1, -1, -2, -1)})
	if !errors.Is(err, ErrUnsupportedConfig) {
		t.Fatalf("err %v, want ErrUnsupportedConfig", err)
	}
	m := coal.Metrics()
	if m.Enqueued != 0 || m.QueuedPairs != 0 {
		t.Fatalf("unsupported config consumed queue budget: %+v", m)
	}
}

// TestCoalescerAbandonReleasesQueue: a ctx-canceled queued request must
// leave the queue entirely — gauges drop to zero and its tenant's share
// is returned — so the caller may immediately reuse its buffers and the
// next request is admitted where it was shed a moment before.
func TestCoalescerAbandonReleasesQueue(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// No flusher until the end; the share is the one-batch floor, 8 pairs.
	coal := calibratedCoalescer(t, eng, CoalescerOptions{MaxBatchPairs: 8, TargetDelay: time.Nanosecond})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := coal.Align(ctx, makePairsSeed(6, 11), cfgT)
		done <- err
	}()
	<-coal.kick // the 6 pairs are queued
	if _, _, err := coal.Align(ctxb, makePairsSeed(6, 12), cfgT); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second request behind a held share: err %v, want ErrOverloaded", err)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	m := coal.Metrics()
	if m.QueuedPairs != 0 || m.QueuedRequests != 0 || m.QueuedLanes != 0 {
		t.Fatalf("abandoned request still queued: %+v", m)
	}
	// The share is free again: the same request is admitted (not shed) and
	// runs when the flusher starts.
	ok := make(chan error, 1)
	go func() {
		_, _, err := coal.Align(ctxb, makePairsSeed(6, 12), cfgT)
		ok <- err
	}()
	<-coal.kick
	coal.start()
	coal.Close()
	if err := <-ok; err != nil {
		t.Fatalf("share not released: %v", err)
	}
}

// TestCoalescerBulkDirectCountsTenant: an engine-sized bulk chunk runs
// directly on the engine, and it still counts as one request of its
// tenant, as a queued chunk and Align's bypass do.
func TestCoalescerBulkDirectCountsTenant(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	coal := eng.NewCoalescer(CoalescerOptions{MaxBatchPairs: 4})
	defer coal.Close()
	sc, err := eng.ingest(makePairsSeed(8, 1), cfgT)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.release(sc)
	ten := NewTenant(TenantOptions{Name: "pipeline"})
	if _, err := coal.extendBulk(WithTenant(ctxb, ten), sc.in, sc.res, cfgT.scheme(), cfgT.X); err != nil {
		t.Fatal(err)
	}
	if m := coal.Metrics(); m.Direct != 1 || m.Enqueued != 0 {
		t.Fatalf("metrics %+v: want the 8-pair chunk direct, nothing queued", m)
	}
	tt := coal.tenantTele(ten)
	if r, p := tt.requests.Value(), tt.pairs.Value(); r != 1 || p != 8 {
		t.Fatalf("tenant counted %v requests, %v pairs; want 1 and 8", r, p)
	}
}

// cellTally counts the DP cells its backend writes into the result slots
// of every batch, finished or abandoned.
type cellTally struct {
	backend.Backend
	cells atomic.Int64
}

func (c *cellTally) ExtendBatch(ctx context.Context, pairs []seq.Pair, out []xdrop.SeedResult, sch xdrop.Scheme, x int32) (backend.BatchStats, error) {
	st, err := c.Backend.ExtendBatch(ctx, pairs, out, sch, x)
	for i := range out {
		c.cells.Add(out[i].Cells())
	}
	return st, err
}

// TestCoalescerLoneBulkChunkCancel: a bulk chunk executing alone runs
// under its caller's cancellation. Canceled while the engine holds its
// batch, it computes no cell once released, and the caller gets the
// context's error — as a DELETEd job's chunk does on the engine-direct
// path.
func TestCoalescerLoneBulkChunkCancel(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	g := holdBatches(eng)
	tally := &cellTally{Backend: eng.be}
	eng.be = tally
	coal := eng.NewCoalescer(CoalescerOptions{})
	defer coal.Close()

	sc, err := eng.ingest(makePairsSeed(16, 1), cfgT)
	if err != nil {
		t.Fatal(err)
	}
	in := sc.in
	ctx, cancel := context.WithCancel(ctxb)
	done := make(chan error, 1)
	go func() {
		_, err := coal.extendBulk(ctx, in, make([]xdrop.SeedResult, len(in)), cfgT.scheme(), cfgT.X)
		done <- err
	}()
	<-g.entered // the chunk is executing, alone
	cancel()
	g.open()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled lone chunk: err %v, want context.Canceled", err)
	}
	if n := tally.cells.Load(); n != 0 {
		t.Fatalf("the engine computed %d cells of a chunk canceled before it ran", n)
	}
}
