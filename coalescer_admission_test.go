package logan

import (
	"context"
	"errors"
	"testing"
	"time"
)

// calibrate runs one engine batch so the backend layer has a throughput
// estimate, then returns a coalescer whose cells-per-pair EWMA is seeded —
// the two inputs of the drain-rate projection — without a flusher
// goroutine, so the tests below own the queue state.
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

// TestAdmissionFixedBudget: MaxPending > 0 selects the legacy fixed
// pair-budget mode — the delay projection never sheds, only the budget.
func TestAdmissionFixedBudget(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	c := calibratedCoalescer(t, eng, CoalescerOptions{
		MaxBatchPairs: 4, MaxPending: 10,
		TargetDelay: time.Nanosecond, // must be ignored in fixed mode
	})

	c.pending = 8
	c.tenPending[anonymousTenant] = 8
	if reason, ok := c.admitLocked(context.Background(), anonymousTenant, 3); ok || reason != shedBudget {
		t.Fatalf("over budget: reason %v ok %v, want shedBudget", reason, ok)
	}
	// Under the budget everything is admitted, even though the calibrated
	// delay projection is far past the (ignored) 1ns target.
	if _, ok := c.admitLocked(context.Background(), anonymousTenant, 2); !ok {
		t.Fatal("within budget: not admitted")
	}
}

// TestAdmissionAdaptive covers the adaptive controller's decision table:
// the one-batch floor, the target-delay shed, the deadline-infeasible
// shed, and the uncalibrated fallback.
func TestAdmissionAdaptive(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const target = 100 * time.Millisecond
	c := calibratedCoalescer(t, eng, CoalescerOptions{
		MaxBatchPairs: 4, TargetDelay: target,
	})
	rate := c.drainPairsPerSec()

	// One engine batch always fits, regardless of the projection.
	c.pending = 0
	delete(c.tenPending, anonymousTenant)
	if _, ok := c.admitLocked(context.Background(), anonymousTenant, 4); !ok {
		t.Fatal("one-batch floor: not admitted")
	}

	// Pending far past what drains within the target: shed by delay.
	c.pending = int(rate*target.Seconds()) + 100
	c.tenPending[anonymousTenant] = c.pending
	if reason, ok := c.admitLocked(context.Background(), anonymousTenant, 1); ok || reason != shedDelay {
		t.Fatalf("past target: reason %v ok %v, want shedDelay", reason, ok)
	}

	// Above the floor but projected well under the target: admitted —
	// unless the measured rate is so low the regime does not exist.
	under := int(rate * target.Seconds() / 2)
	if under > c.opt.MaxBatchPairs {
		c.pending = under
		c.tenPending[anonymousTenant] = under
		if reason, ok := c.admitLocked(context.Background(), anonymousTenant, 1); !ok {
			t.Fatalf("under target: reason %v, want admit", reason)
		}
		// Same queue, but the request's own deadline cannot survive the
		// projected wait: shed as infeasible even under the target.
		ctx, cancel := context.WithDeadline(context.Background(), time.Now())
		defer cancel()
		if reason, ok := c.admitLocked(ctx, anonymousTenant, 1); ok || reason != shedDeadline {
			t.Fatalf("infeasible deadline: reason %v ok %v, want shedDeadline", reason, ok)
		}
	}

	// ErrDeadlineInfeasible must still satisfy the ErrOverloaded checks
	// HTTP front ends map to 429.
	if !errors.Is(ErrDeadlineInfeasible, ErrOverloaded) {
		t.Fatal("ErrDeadlineInfeasible does not wrap ErrOverloaded")
	}

	// Uncalibrated controller (fresh coalescer, cells-per-pair unknown):
	// admit and let the first flushes measure.
	fresh := eng.newCoalescer(CoalescerOptions{MaxBatchPairs: 4, TargetDelay: time.Nanosecond})
	fresh.t.cellsPerPair.Set(0)
	fresh.pending = 1 << 20
	fresh.tenPending[anonymousTenant] = 1 << 20
	if reason, ok := fresh.admitLocked(context.Background(), anonymousTenant, 1); !ok {
		t.Fatalf("uncalibrated: reason %v, want admit", reason)
	}
}

// TestCoalescerAdaptiveVsFixedOverload is the synthetic-overload
// comparison: under the same burst against a busy engine, a generous
// fixed-cap coalescer queues everything (no sheds, every request served),
// while the adaptive controller with a tight delay target sheds the
// excess with ErrOverloaded instead of letting the queue grow.
func TestCoalescerAdaptiveVsFixedOverload(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	g := holdBatches(eng)

	// Each request stays below MaxBatchPairs (engine-sized requests bypass
	// the queue and its admission control entirely) but above half of it,
	// so one queued request already uses up the adaptive one-batch floor.
	// The burst arrives while a batch is held in flight — an idle flusher
	// would drain between admissions and nothing would ever shed — and
	// every client reports its result as it gets one.
	const clients = 16
	const pairsPerClient = 7
	burst := func(coal *Coalescer) <-chan error {
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
		return results
	}

	// Baseline: fixed cap far above the burst — admission never sheds, so
	// nothing returns until the engine is released, and then everything is
	// served.
	fixed := eng.NewCoalescer(CoalescerOptions{MaxBatchPairs: 8, MaxPending: 1 << 20})
	results := burst(fixed)
	waitFor(t, func() bool { return fixed.Metrics().QueuedRequests == clients })
	g.open()
	for i := 0; i <= clients; i++ {
		if err := <-results; err != nil {
			t.Fatalf("fixed cap: %v, want every request served", err)
		}
	}
	fixed.Close()

	// Adaptive with a delay target no real queue can meet: once the first
	// warmup batches calibrate the drain rate, the one-batch floor admits
	// one request of the burst and everything beyond it is shed at once.
	adaptive := eng.NewCoalescer(CoalescerOptions{MaxBatchPairs: 8, TargetDelay: time.Nanosecond})
	defer adaptive.Close()
	for i := 0; i < 2; i++ { // calibrate cells-per-pair via real batches
		if _, _, err := adaptive.Align(context.Background(), makePairsSeed(4, int64(100+i)), cfgT); err != nil {
			t.Fatal(err)
		}
	}
	results = burst(adaptive)
	for i := 0; i < clients-1; i++ {
		if err := <-results; !errors.Is(err, ErrOverloaded) {
			t.Fatalf("adaptive: %v, want ErrOverloaded for all but one of the burst", err)
		}
	}
	// The shed callers get a live drain estimate to retry against.
	if ra := adaptive.RetryAfter(); ra < minRetryAfter || ra > 30*time.Second {
		t.Fatalf("RetryAfter %v outside [%v, 30s]", ra, minRetryAfter)
	}
	g.open()
	for i := 0; i < 2; i++ { // the held request and the one the floor admitted
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	m := adaptive.Metrics()
	if m.ShedDelay != clients-1 || m.ShedDelay != m.Shed {
		t.Fatalf("metrics %+v: want every shed attributed to the delay target", m)
	}
}
