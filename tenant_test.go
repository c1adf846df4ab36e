package logan

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTenantTokenBucket covers the pairs/sec quota mechanics on an
// injected clock: burst capacity, exhaustion, refill at exactly the
// configured rate, the cap at Burst, and the unlimited defaults (zero
// options, nil tenant).
func TestTenantTokenBucket(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	ten := NewTenant(TenantOptions{Name: "t", PairsPerSec: 1000, Burst: 10})
	if !ten.takePairs(10, now) {
		t.Fatal("burst capacity not admitted")
	}
	if ten.takePairs(5, now) {
		t.Fatal("exhausted bucket admitted 5 pairs")
	}
	// 1000 pairs/sec refills 5 tokens in 5ms, not in 4.
	if now = now.Add(4 * time.Millisecond); ten.takePairs(5, now) {
		t.Fatal("admitted 5 pairs 4ms after exhaustion")
	}
	if now = now.Add(time.Millisecond); !ten.takePairs(5, now) {
		t.Fatal("bucket did not refill 5 pairs in 5ms")
	}
	// An idle hour refills to Burst and no further.
	now = now.Add(time.Hour)
	if ten.takePairs(11, now) {
		t.Fatal("bucket refilled past its burst")
	}
	if !ten.takePairs(10, now) {
		t.Fatal("bucket did not refill to its burst")
	}

	if !NewTenant(TenantOptions{Name: "u"}).takePairs(1<<30, now) {
		t.Fatal("unlimited tenant metered")
	}
	var nilTen *Tenant
	if !nilTen.takePairs(1, now) {
		t.Fatal("nil tenant metered")
	}
}

// TestTenantDefaults pins NewTenant's zero-field behavior and the
// context plumbing round trip.
func TestTenantDefaults(t *testing.T) {
	ten := NewTenant(TenantOptions{})
	if ten.Name() != "tenant" || ten.Weight() != 1 {
		t.Fatalf("defaults: name %q weight %d", ten.Name(), ten.Weight())
	}
	if AnonymousTenant().Name() != "anonymous" {
		t.Fatalf("anonymous tenant named %q", AnonymousTenant().Name())
	}
	if TenantFrom(context.Background()) != nil {
		t.Fatal("empty context carries a tenant")
	}
	ctx := WithTenant(context.Background(), ten)
	if TenantFrom(ctx) != ten {
		t.Fatal("WithTenant/TenantFrom round trip failed")
	}
	if !errors.Is(ErrQuotaExceeded, ErrOverloaded) {
		t.Fatal("ErrQuotaExceeded does not wrap ErrOverloaded")
	}
}

// TestTenantQuotaShedsCoalesced: a rate-limited tenant exhausting its
// bucket is shed with ErrQuotaExceeded on the coalesced path, attributed
// to its own shed counter, while an unlimited tenant on the same
// coalescer keeps being served.
func TestTenantQuotaShedsCoalesced(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	coal := eng.NewCoalescer(CoalescerOptions{MaxBatchPairs: 64})
	defer coal.Close()

	// Rate low enough that the bucket cannot visibly refill mid-test.
	limited := NewTenant(TenantOptions{Name: "limited", PairsPerSec: 0.001, Burst: 4})
	free := NewTenant(TenantOptions{Name: "free"})
	lctx := WithTenant(ctxb, limited)
	fctx := WithTenant(ctxb, free)

	if _, _, err := coal.Align(lctx, makePairsSeed(4, 1), cfgT); err != nil {
		t.Fatalf("within burst: %v", err)
	}
	_, _, err = coal.Align(lctx, makePairsSeed(2, 2), cfgT)
	if !errors.Is(err, ErrQuotaExceeded) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("past burst: err %v, want ErrQuotaExceeded", err)
	}
	if _, _, err := coal.Align(fctx, makePairsSeed(2, 3), cfgT); err != nil {
		t.Fatalf("unlimited tenant collateral shed: %v", err)
	}

	m := coal.Metrics()
	if m.ShedQuota != 1 || m.Shed != 1 {
		t.Fatalf("metrics %+v: want exactly one quota shed", m)
	}
	if v := coal.tenantTele(limited).shed.Value(); v != 1 {
		t.Fatalf("limited tenant shed counter %v, want 1", v)
	}
	if v := coal.tenantTele(free).shed.Value(); v != 0 {
		t.Fatalf("free tenant shed counter %v, want 0", v)
	}
}

// TestTenantQuotaShedsDirect: the engine meters direct (non-coalesced)
// submissions against the context tenant's bucket too.
func TestTenantQuotaShedsDirect(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ten := NewTenant(TenantOptions{Name: "d", PairsPerSec: 0.001, Burst: 4})
	ctx := WithTenant(ctxb, ten)
	if _, _, err := eng.Align(ctx, makePairsSeed(4, 4), cfgT); err != nil {
		t.Fatalf("within burst: %v", err)
	}
	if _, _, err := eng.Align(ctx, makePairsSeed(1, 5), cfgT); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("past burst: err %v, want ErrQuotaExceeded", err)
	}
	// Tenant-less contexts stay unmetered.
	if _, _, err := eng.Align(ctxb, makePairsSeed(1, 6), cfgT); err != nil {
		t.Fatalf("anonymous direct align: %v", err)
	}
}

// TestCoalescerPriorityClasses: interactive lanes are picked ahead of
// bulk lanes whatever the arrival order, and under a saturated
// interactive lane queued bulk work is still served within
// maxBulkPassOver batches.
func TestCoalescerPriorityClasses(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// No flusher: the test owns take().
	c := eng.newCoalescer(CoalescerOptions{MaxBatchPairs: 4})
	bulkCfg, interCfg := DefaultConfig(60), DefaultConfig(70)
	takeClass := func() priorityClass {
		t.Helper()
		key, _, _, ok := c.take()
		if !ok {
			t.Fatal("take found nothing queued")
		}
		return key.class
	}

	enqueue(t, c, anonymousTenant, classBulk, bulkCfg, 4, -1) // enqueued FIRST
	enqueue(t, c, anonymousTenant, classInteractive, interCfg, 4, -1)
	if cl := takeClass(); cl != classInteractive {
		t.Fatal("first take: want the interactive lane despite bulk arriving first")
	}
	if cl := takeClass(); cl != classBulk {
		t.Fatal("second take: want the bulk lane once no interactive work is queued")
	}
	if _, _, _, ok := c.take(); ok {
		t.Fatal("take on an empty queue")
	}

	// A saturated interactive lane (always another full batch waiting) and
	// two queued bulk batches: each bulk batch is passed over exactly
	// maxBulkPassOver times, never more.
	for i := 0; i < 3*maxBulkPassOver; i++ {
		enqueue(t, c, anonymousTenant, classInteractive, interCfg, 4, -1)
	}
	enqueue(t, c, anonymousTenant, classBulk, bulkCfg, 4, -1)
	enqueue(t, c, anonymousTenant, classBulk, bulkCfg, 4, -1)
	for round := 0; round < 2; round++ {
		for i := 0; i < maxBulkPassOver; i++ {
			if cl := takeClass(); cl != classInteractive {
				t.Fatalf("round %d batch %d: bulk lane served ahead of its turn", round, i)
			}
		}
		if cl := takeClass(); cl != classBulk {
			t.Fatalf("round %d: bulk lane passed over more than %d batches", round, maxBulkPassOver)
		}
	}
}

// TestCoalescerFairShare is the fairness regression test of the
// multi-tenant scheduler (run under -race in CI): a tenant flooding the
// coalescer at several times its share must neither shed nor delay a
// well-behaved tenant — the victim's requests all succeed and its p99
// wall latency stays within a few engine batches plus generous CI slack,
// while every shed is a delay shed attributed to the flooder.
func TestCoalescerFairShare(t *testing.T) {
	eng, err := NewAligner(EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	coal := eng.NewCoalescer(CoalescerOptions{
		MaxBatchPairs: 16,
		// A target no queue can meet leaves each tenant exactly its
		// one-batch floor: two of the flooder's 8-pair requests queued
		// behind the two executing, so twelve clients always overrun it,
		// while the victim's single pairs always fit its own floor.
		TargetDelay: time.Nanosecond,
	})
	defer coal.Close()
	for i := 0; i < 2; i++ { // measure a drain rate: nothing sheds before one exists
		if _, _, err := coal.Align(ctxb, makePairsSeed(4, int64(100+i)), cfgT); err != nil {
			t.Fatal(err)
		}
	}

	flooder := NewTenant(TenantOptions{Name: "flooder"})
	victim := NewTenant(TenantOptions{Name: "victim"})
	fctx := WithTenant(ctxb, flooder)
	vctx := WithTenant(ctxb, victim)

	stop := make(chan struct{})
	var floodShed, floodServed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(pairs []Pair) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := coal.Align(fctx, pairs, cfgT)
				switch {
				case err == nil:
					floodServed.Add(1)
				case errors.Is(err, ErrOverloaded):
					floodShed.Add(1)
					runtime.Gosched() // shed clients retry at once; do not starve the engine of CPU
				default:
					t.Errorf("flooder: %v", err)
					return
				}
			}
		}(makePairsSeed(8, int64(1000+i)))
	}
	waitFor(t, func() bool { return floodShed.Load() > 0 })

	// The victim issues sequential single-pair requests while the flood
	// runs; each waits out a few flooder batches at worst.
	const rounds = 20
	lat := make([]time.Duration, 0, rounds)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		if _, _, err := coal.Align(vctx, makePairsSeed(1, int64(2000+r)), cfgT); err != nil {
			t.Errorf("victim round %d: %v (the flooder's load must never shed the victim)", r, err)
		}
		lat = append(lat, time.Since(start))
	}
	close(stop)
	wg.Wait()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	// The victim's batch executes behind at most a few in-flight flooder
	// batches; the rest of the bound is CI scheduler skew.
	if bound := 180 * time.Millisecond; p99 > bound {
		t.Fatalf("victim p99 latency %v exceeds %v; flooder delayed the victim", p99, bound)
	}
	if floodShed.Load() == 0 {
		t.Fatalf("flooder was never shed (served %d): its share did not bind", floodServed.Load())
	}
	m := coal.Metrics()
	if m.ShedDelay != floodShed.Load() || m.Shed != m.ShedDelay {
		t.Fatalf("shed attribution: coalescer %+v, flooder observed %d delay sheds", m, floodShed.Load())
	}
	if v := coal.tenantTele(victim).shed.Value(); v != 0 {
		t.Fatalf("victim shed counter %v, want 0", v)
	}
	if v := coal.tenantTele(flooder).shed.Value(); int64(v) != floodShed.Load() {
		t.Fatalf("flooder shed counter %v, want %d", v, floodShed.Load())
	}
}
