package logan

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"logan/internal/seq"
	"logan/internal/xdrop"
)

// calibratedCoalescer runs one engine batch so the backend layer has a
// throughput estimate, then returns a coalescer whose cells-per-pair EWMA
// is seeded — the two inputs of the drain-rate projection — without a
// flusher goroutine, so the tests below own the queue state.
func calibratedCoalescer(t *testing.T, eng *Aligner, opt CoalescerOptions) *Coalescer {
	t.Helper()
	if _, _, err := eng.Align(context.Background(), makePairsSeed(8, 7), cfgT); err != nil {
		t.Fatal(err)
	}
	c := eng.newCoalescer(opt)
	// Seed the work estimate directly (a live flusher would measure it
	// from its first merged batch).
	c.t.cellsPerPair.Set(5000)
	if c.drainPairsPerSec() <= 0 {
		t.Fatal("drain rate not calibrated")
	}
	return c
}

// TestCoalescerDelayShedKeepsQuota: a request shed for delay must not
// draw on its tenant's token bucket — the tenant is already being refused
// once. After any number of delay sheds the full burst is still there.
func TestCoalescerDelayShedKeepsQuota(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// No flusher: the tenant's share (the 8-pair floor) stays taken.
	c := calibratedCoalescer(t, eng, CoalescerOptions{MaxBatchPairs: 8, TargetDelay: time.Nanosecond})
	// A rate too low to refill anything during the test.
	ten := NewTenant(TenantOptions{Name: "metered", PairsPerSec: 0.001, Burst: 12})
	held := enqueue(t, c, ten, classInteractive, cfgT, 6, -1)

	ctx := WithTenant(ctxb, ten)
	for i := 0; i < 5; i++ {
		_, _, err := c.Align(ctx, makePairsSeed(6, int64(i)), cfgT)
		if !errors.Is(err, ErrOverloaded) || errors.Is(err, ErrQuotaExceeded) {
			t.Fatalf("request %d behind a full share: err %v, want a delay shed", i, err)
		}
	}
	if m := c.Metrics(); m.ShedDelay != 5 || m.ShedQuota != 0 {
		t.Fatalf("metrics %+v: want 5 delay sheds, no quota shed", m)
	}
	if !ten.takePairs(12, c.now()) {
		t.Fatal("delay sheds drained the tenant's token bucket")
	}
	// With the share free the bucket is what refuses, and says so.
	c.q.abandon(laneKey{ten: ten, class: classInteractive, cfg: cfgT.key()}, held)
	if _, _, err := c.Align(ctx, makePairsSeed(6, 9), cfgT); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("empty bucket: err %v, want ErrQuotaExceeded", err)
	}
}

// TestCoalescerOverload is the synthetic-overload test: a burst against a
// busy engine is queued whole and served when the delay target has room
// for it, and shed down to the one-batch floor with ErrOverloaded — instead
// of letting the queue grow — when it has not.
func TestCoalescerOverload(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	g := holdBatches(eng)

	// Each request stays below MaxBatchPairs (engine-sized requests bypass
	// the queue and its admission control entirely) but above half of it,
	// so one queued request already uses up the one-batch floor. The burst
	// arrives while a batch is held in flight — an idle flusher would drain
	// between admissions and nothing would ever shed — and every client
	// reports its result as it gets one.
	const clients = 16
	const pairsPerClient = 7
	burst := func(target time.Duration) (*Coalescer, <-chan error) {
		g.held.Store(false)
		coal := eng.NewCoalescer(CoalescerOptions{MaxBatchPairs: 8, TargetDelay: target})
		for i := 0; i < 2; i++ { // calibrate cells-per-pair via real batches
			if _, _, err := coal.Align(context.Background(), makePairsSeed(4, int64(100+i)), cfgT); err != nil {
				t.Fatal(err)
			}
		}
		g.held.Store(true)
		results := make(chan error, clients+1)
		go func() {
			_, _, err := coal.Align(context.Background(), makePairsSeed(1, 99), cfgT)
			results <- err
		}()
		<-g.entered
		for i := 0; i < clients; i++ {
			go func(i int) {
				_, _, err := coal.Align(context.Background(), makePairsSeed(pairsPerClient, int64(i)), cfgT)
				results <- err
			}(i)
		}
		return coal, results
	}

	// A target far above what the burst needs: admission never sheds, so
	// nothing returns until the engine is released, and then everything is
	// served.
	roomy, results := burst(time.Hour)
	waitFor(t, func() bool { return roomy.Metrics().QueuedRequests == clients })
	g.open()
	for i := 0; i <= clients; i++ {
		if err := <-results; err != nil {
			t.Fatalf("roomy target: %v, want every request served", err)
		}
	}
	roomy.Close()

	// A target no real queue can meet: the one-batch floor admits one
	// request of the burst and everything beyond it is shed at once.
	tight, results := burst(time.Nanosecond)
	defer tight.Close()
	for i := 0; i < clients-1; i++ {
		if err := <-results; !errors.Is(err, ErrOverloaded) {
			t.Fatalf("tight target: %v, want ErrOverloaded for all but one of the burst", err)
		}
	}
	// The shed callers get a live drain estimate to retry against.
	if ra := tight.RetryAfter(); ra < minRetryAfter || ra > 30*time.Second {
		t.Fatalf("RetryAfter %v outside [%v, 30s]", ra, minRetryAfter)
	}
	g.open()
	for i := 0; i < 2; i++ { // the held request and the one the floor admitted
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	m := tight.Metrics()
	if m.ShedDelay != clients-1 || m.ShedDelay != m.Shed {
		t.Fatalf("metrics %+v: want every shed attributed to the delay target", m)
	}
}

// TestCoalescerBulkKeepsInteractiveCalibration: interactive admission's
// work estimate is calibrated from interactive batches only. One heavy
// bulk batch (a pipeline chunk of long pairs, orders of magnitude more
// cells per pair) must not cut the drain rate interactive admission
// projects with, so a request admissible before it is still admitted
// after it.
func TestCoalescerBulkKeepsInteractiveCalibration(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// No flusher: the test runs each batch itself.
	const floor = 8
	c := eng.newCoalescer(CoalescerOptions{MaxBatchPairs: floor})
	runBatch := func() {
		t.Helper()
		key, ws, n, ok := c.take()
		if !ok {
			t.Fatal("take found nothing queued")
		}
		c.execute(key, ws, n)
		if r := <-ws[0].ch; r.err != nil {
			t.Fatal(r.err)
		}
	}
	enqueue(t, c, anonymousTenant, classInteractive, cfgT, 4, 1)
	runBatch()
	rate := c.drainPairsPerSec()
	if rate <= 0 {
		t.Fatal("drain rate not calibrated by an interactive batch")
	}
	// A target ten times what a floor's worth of queue plus the probe
	// takes at the calibrated rate.
	c.opt.TargetDelay = time.Duration(10 * float64(floor+2) / rate * float64(time.Second))

	long := seq.RandPairSet(rand.New(rand.NewSource(2)), seq.PairSetOptions{
		N: 2, MinLen: 20_000, MaxLen: 20_000, ErrorRate: 0.15, SeedLen: 17,
	})
	w := &coalesceWaiter{in: long, out: make([]xdrop.SeedResult, len(long)),
		enq: time.Now(), ctx: ctxb, tt: c.tenantTele(anonymousTenant), ch: make(chan coalesceResult, 1)}
	c.mu.Lock()
	c.q.enqueue(laneKey{ten: anonymousTenant, class: classBulk, cfg: cfgT.key()}, w)
	c.mu.Unlock()
	runBatch()
	if w.out[0].Cells() < 100*int64(cfgT.X) {
		t.Fatalf("bulk batch computed %d cells for a 20 kb pair: not heavy", w.out[0].Cells())
	}

	// A floor's worth of interactive work queued, then a 2-pair probe:
	// past the floor, so admission projects it.
	enqueue(t, c, anonymousTenant, classInteractive, cfgT, floor, 4)
	select { // the enqueues' wake-up, so the next one is the probe's
	case <-c.kick:
	default:
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Align(ctxb, makePairsSeed(2, 3), cfgT)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("probe answered without queueing (%v): the heavy bulk batch cut the drain rate from %.0f to %.0f pairs/s",
			err, rate, c.drainPairsPerSec())
	case <-c.kick:
	}
	c.start()
	c.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
