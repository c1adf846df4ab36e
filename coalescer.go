package logan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"logan/internal/backend"
	"logan/internal/seq"
	"logan/internal/telemetry"
	"logan/internal/xdrop"
)

// ErrOverloaded reports a Coalescer submission rejected by admission
// control: the projected queue delay exceeds the target
// (CoalescerOptions.TargetDelay) or cannot meet the request's deadline
// (ErrDeadlineInfeasible), or the tenant's pairs/sec quota is exhausted
// (ErrQuotaExceeded). The request was not queued and did no alignment
// work; callers should retry after roughly Coalescer.RetryAfter (an HTTP
// front end translates this to 429 with a Retry-After header, as
// cmd/logan-serve does).
var ErrOverloaded = errors.New("logan: coalescer overloaded")

// ErrDeadlineInfeasible reports a submission shed because its context
// deadline cannot be met: the queue ahead of it is projected to drain
// later than the deadline, so queueing it would only burn engine time on
// a result nobody can receive. It wraps ErrOverloaded, so callers (and
// HTTP front ends) that already test errors.Is(err, ErrOverloaded)
// handle it with no change.
var ErrDeadlineInfeasible = fmt.Errorf("%w: request deadline infeasible under projected queue delay", ErrOverloaded)

// sheds is the shed vocabulary: per shedReason, the reason label of
// logan_coalescer_shed_total and the error Align returns.
var sheds = [...]struct {
	label string
	err   error
}{
	shedDelay:    {"delay", ErrOverloaded},
	shedDeadline: {"deadline", ErrDeadlineInfeasible},
	shedQuota:    {"quota", ErrQuotaExceeded},
}

// Defaults and scheduling constants of the Coalescer.
const (
	// defaultTargetDelay is CoalescerOptions.TargetDelay's default.
	defaultTargetDelay = 20 * time.Millisecond
	// minRetryAfter floors Coalescer.RetryAfter: an uncalibrated or empty
	// queue still tells a shed caller to back off for a moment.
	minRetryAfter = 2 * time.Millisecond
)

// CoalescerOptions tunes a Coalescer. The zero value selects the defaults
// documented on each field.
type CoalescerOptions struct {
	// MaxBatchPairs is the merged-batch cap: a batch takes whole requests
	// of one lane until at least this many pairs are covered (so it can
	// exceed the cap by at most one request). It is also the DRR quantum:
	// each queued lane earns one MaxBatchPairs of service credit per
	// scheduler rotation. Requests carrying MaxBatchPairs or more pairs
	// bypass the queue entirely — they are already engine-sized. Default
	// 4096.
	MaxBatchPairs int

	// TargetDelay is the admission bound: a request is shed with
	// ErrOverloaded when the tenant's queue, including the request
	// itself, is projected to take longer than TargetDelay to drain at
	// the tenant's fair share of the measured rate (backend throughput in
	// cells/s divided by the EWMA cells-per-pair of recent batches,
	// weighted by tenant share), so a tenant flooding its own share is
	// shed without consuming the headroom of well-behaved tenants.
	// Requests whose context deadline falls inside the projected delay
	// are shed early with ErrDeadlineInfeasible regardless of
	// TargetDelay. One engine batch (MaxBatchPairs) per tenant is always
	// admissible, and so is everything until the first batch has
	// calibrated the estimates. Default 20ms.
	TargetDelay time.Duration

	// Cache, when non-nil, is the content-addressed result cache of
	// Align, consulted at admission and filled by each caller once its
	// batch has run: pairs whose (digest, config) is cached are answered
	// without queueing, quota charge or engine work, byte-identical to
	// recomputation. It answers
	// Align requests only: the extension chunks of Overlappers and
	// Mappers routed through the Coalescer neither probe nor fill it.
	// Share one cache across every Coalescer of a process so their Align
	// traffic deduplicates.
	Cache *ResultCache
}

// Coalescer merges concurrent small Align requests into engine-sized
// batches. LOGAN's kernel only saturates the hardware when thousands of
// alignments are in flight at once, but service traffic arrives as many
// small independent requests; the Coalescer is the traffic-shaping layer
// between the two. Concurrent callers enqueue their pairs into per-lane
// queues, and a single flusher goroutine is work-conserving over them:
// it never sleeps while any lane is non-empty. It pops the next batch
// (whole requests of one lane, FIFO, up to MaxBatchPairs), runs it on the
// engine, copies each request's results into the request's own slice and
// hands back the batch's wall and device time, and whatever arrived
// meanwhile forms the next batch. The flusher runs batches, not requests:
// each caller finishes its own request on its own goroutine (Alignment
// conversion, cache fill, Stats). A request on an idle Coalescer
// therefore runs at once, and merging comes from engine busy time — the
// fuller the engine, the fuller the batches — never from a timer.
//
// Queued work is organized into lanes keyed by (tenant, priority class,
// configuration): only same-config requests merge into one engine batch
// — batch composition never changes per-pair parameters, so results
// stay bit-identical to a dedicated engine per configuration — and the
// tenant/class split is the scheduling fabric. The lanes of a class are
// served deficit-round-robin (quantum MaxBatchPairs), so a tenant
// flooding one lane cannot monopolize the flusher; interactive lanes
// (Align, the /align path) are picked ahead of bulk lanes (the extension
// chunks of an Overlapper or Mapper built with this Coalescer, the /jobs
// and /map paths), except that queued bulk work is never passed over for
// more than maxBulkPassOver consecutive batches. Admission is
// tenant-aware: each tenant owns a pairs/sec token-bucket quota and a
// weight share of the drain rate, so the flooder is shed, not the
// victim. Bulk chunks draw no quota.
//
// When CoalescerOptions.Cache is set, admission first consults the
// content-addressed result cache: pairs already computed under the same
// configuration are answered immediately (byte-identical by
// construction — an alignment is a pure function of pair bytes, seed
// placement and configuration) and only the misses queue, are metered
// against the tenant quota, and reach the engine; the caller fills the
// cache with what its batch computed before its Align returns.
//
// A Coalescer is safe for concurrent use. Close runs the remaining
// queue and stops the flusher; it does not close the underlying Aligner.
type Coalescer struct {
	eng *Aligner
	opt CoalescerOptions

	// now is the one clock of the Coalescer and the policy under it
	// (time.Now; tests substitute a virtual one).
	now func() time.Time

	mu     sync.Mutex
	q      laneSched // queued requests and their service order
	closed bool

	kick chan struct{} // wakes the idle flusher after an enqueue
	done chan struct{} // closed by Close; flusher drains and exits
	wg   sync.WaitGroup

	t coalescerTelemetry

	// Per-tenant instrument bundles, registered lazily on a tenant's
	// first submission. Guarded by its own mutex: registration takes the
	// registry lock, which must never nest inside c.mu (snapshot-time
	// gauge functions take c.mu while holding the registry lock).
	tmu   sync.Mutex
	ttele map[*Tenant]*tenantTele

	// flusher-goroutine scratch: the merged input batch (pairs already
	// converted at admission) and its engine results. Only the flusher
	// touches them.
	mergeBuf []seq.Pair
	resBuf   []xdrop.SeedResult
}

// coalesceWaiter is one queued request of either class, interactive or
// bulk: the pairs the engine must compute — validated and converted at
// admission (or built by the pipeline that submits them), so the batch
// never re-scans them — and the slice their results are copied into, the
// enqueue time, and the buffered channel the batch's outcome is delivered
// on (buffered so the flusher never blocks on an abandoned caller). The
// flusher reads nothing else of a request: whatever the caller does with
// out, it does on its own goroutine once ch has delivered.
type coalesceWaiter struct {
	in  []seq.Pair
	out []xdrop.SeedResult // len(in) slots, filled by the flusher before delivery
	tt  *tenantTele
	enq time.Time
	// ctx is the request's context: a batch the request rides alone runs
	// under its cancellation.
	ctx context.Context
	ch  chan coalesceResult
	// tr is the request's trace (nil when the caller attached none): the
	// flusher stamps the queue wait and copies the merged batch's stage
	// spans onto it before delivering the result, so the channel receive
	// orders those writes for the owner.
	tr *telemetry.Trace
}

// coalesceResult is a batch's outcome as its riders receive it: the wall
// and device time of the whole merged batch, or the error that failed it.
type coalesceResult struct {
	wall, device time.Duration
	err          error
}

// coalescerTelemetry is the Coalescer's instrument bundle, registered in
// the engine's registry at construction so /metrics, /statz and
// CoalescerMetrics all read the same cells. Counters and gauges are
// lock-free; the queue-depth gauges are GaugeFuncs taking c.mu at
// snapshot time.
type coalescerTelemetry struct {
	enqueued, direct                           *telemetry.Counter
	shed                                       [len(sheds)]*telemetry.Counter // by shedReason
	mergedBatches, mergedPairs, mergedRequests *telemetry.Counter
	cacheHits, cacheMisses, cacheEvict         *telemetry.Counter
	queueWait                                  *telemetry.Counter // seconds
	maxMergedPairs                             *telemetry.Gauge   // written only by the flusher
	cellsPerPair                               *telemetry.Gauge   // EWMA of interactive batches, the drain-rate divisor
}

// tenantTele is one tenant's attribution bundle: who was served, who was
// shed, who hit the cache. Registered lazily on the tenant's first
// submission through this Coalescer.
type tenantTele struct {
	requests, pairs, shed, cacheHits *telemetry.Counter
}

// served counts one completed request of n pairs.
func (tt *tenantTele) served(n int) {
	tt.requests.Inc()
	tt.pairs.Add(float64(n))
}

// CoalescerMetrics is a snapshot of a Coalescer's lifetime counters and
// current queue gauges, the observability surface behind logan-serve's
// /statz "coalescer" block.
type CoalescerMetrics struct {
	// Enqueued counts requests admitted to the queue; Shed counts requests
	// rejected with ErrOverloaded (the sum of the per-reason counters
	// below); Direct counts large requests that bypassed the queue
	// (>= MaxBatchPairs pairs).
	Enqueued, Shed, Direct int64

	// The shed breakdown: ShedDelay hit the TargetDelay bound,
	// ShedDeadline an infeasible request deadline (ErrDeadlineInfeasible),
	// ShedQuota the tenant's pairs/sec token bucket (ErrQuotaExceeded).
	ShedDelay, ShedDeadline, ShedQuota int64

	// MergedBatches counts engine batches submitted by the flusher;
	// MergedPairs and MergedRequests total the pairs and requests across
	// them, and MaxMergedPairs is the largest single one.
	// MergedPairs/MergedBatches is the realized batching factor.
	MergedBatches, MergedPairs, MergedRequests, MaxMergedPairs int64

	// CacheHits and CacheMisses count result-cache probes by outcome
	// (pairs, not requests); CacheEvictions counts LRU evictions. All
	// zero when no cache is attached.
	CacheHits, CacheMisses, CacheEvictions int64

	// WaitNS totals the enqueue-to-batch wait across admitted requests;
	// WaitNS/Enqueued approximates the mean coalescing latency.
	WaitNS int64

	// QueuedRequests and QueuedPairs are current-depth gauges (bulk
	// extension chunks included);
	// QueuedLanes counts the distinct (tenant, class, config) lanes
	// currently queued (each runs as its own merged batches).
	QueuedRequests, QueuedPairs, QueuedLanes int
}

// NewCoalescer starts a coalescing layer over the engine. Zero fields of
// opt select the defaults documented on CoalescerOptions. Close the
// Coalescer to run the residual queue and stop its flusher goroutine.
func (a *Aligner) NewCoalescer(opt CoalescerOptions) *Coalescer {
	c := a.newCoalescer(opt)
	c.start()
	return c
}

// start launches the flusher goroutine; Close waits for it.
func (c *Coalescer) start() {
	c.wg.Add(1)
	go c.run()
}

// newCoalescer builds a fully-instrumented Coalescer without starting
// its flusher goroutine: tests drive take/execute directly, or let
// requests pile up before calling start.
func (a *Aligner) newCoalescer(opt CoalescerOptions) *Coalescer {
	if opt.MaxBatchPairs <= 0 {
		opt.MaxBatchPairs = 4096
	}
	if opt.TargetDelay <= 0 {
		opt.TargetDelay = defaultTargetDelay
	}
	c := &Coalescer{
		eng:   a,
		opt:   opt,
		now:   time.Now,
		q:     newLaneSched(),
		ttele: make(map[*Tenant]*tenantTele),
		kick:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	reg := a.tele
	c.t = coalescerTelemetry{
		enqueued:       reg.Counter("logan_coalescer_enqueued_total", "Requests admitted to the coalescing queue."),
		direct:         reg.Counter("logan_coalescer_direct_total", "Engine-sized requests that bypassed the queue."),
		mergedBatches:  reg.Counter("logan_coalescer_merged_batches_total", "Merged batches submitted to the engine."),
		mergedPairs:    reg.Counter("logan_coalescer_merged_pairs_total", "Pairs across all merged batches."),
		mergedRequests: reg.Counter("logan_coalescer_merged_requests_total", "Requests across all merged batches."),
		cacheHits:      reg.Counter("logan_cache_hits_total", "Pairs answered from the content-addressed result cache."),
		cacheMisses:    reg.Counter("logan_cache_misses_total", "Pairs that missed the result cache and reached the engine."),
		cacheEvict:     reg.Counter("logan_cache_evictions_total", "Result-cache entries evicted by the LRU bound."),
		queueWait:      reg.Counter("logan_coalescer_queue_wait_seconds_total", "Total enqueue-to-batch wait across admitted requests."),
		maxMergedPairs: reg.Gauge("logan_coalescer_max_merged_pairs", "Largest single merged batch in pairs."),
		cellsPerPair:   reg.Gauge("logan_coalescer_cells_per_pair", "EWMA DP cells per pair of recent interactive batches (the admission controller's work estimate)."),
	}
	for r, sh := range sheds {
		c.t.shed[r] = reg.Counter("logan_coalescer_shed_total", "Requests rejected by admission control, by reason.", telemetry.L("reason", sh.label))
	}
	reg.GaugeFunc("logan_cache_entries", "Result-cache entries currently resident.", func() float64 {
		return float64(c.opt.Cache.Len())
	})
	queueGauge := func(name, help string, read func(q *laneSched) int) {
		reg.GaugeFunc(name, help, func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(read(&c.q))
		})
	}
	queueGauge("logan_coalescer_queued_pairs", "Pairs currently queued across all lanes.", func(q *laneSched) int { return q.pending })
	queueGauge("logan_coalescer_queued_requests", "Requests currently queued across all lanes.", (*laneSched).queuedRequests)
	queueGauge("logan_coalescer_queued_configs", "Distinct (tenant, class, config) lanes currently queued.", func(q *laneSched) int { return len(q.lanes) })
	reg.GaugeFunc("logan_coalescer_drain_pairs_per_second", "Measured queue drain rate: backend throughput over cells-per-pair (0 until calibrated).", c.drainPairsPerSec)
	reg.GaugeFunc("logan_coalescer_projected_delay_seconds", "Projected time to drain the current queue at the measured rate (the adaptive admission signal).", c.projectedDelay)
	return c
}

// tenantTele returns ten's attribution bundle, registering its series
// (labelled tenant=<name>) on first use. Never call while holding c.mu:
// registration takes the registry lock, which snapshot-time gauge
// functions hold while taking c.mu.
func (c *Coalescer) tenantTele(ten *Tenant) *tenantTele {
	c.tmu.Lock()
	defer c.tmu.Unlock()
	if tt, ok := c.ttele[ten]; ok {
		return tt
	}
	reg := c.eng.tele
	lab := telemetry.L("tenant", ten.name)
	tt := &tenantTele{
		requests:  reg.Counter("logan_tenant_requests_total", "Requests completed per tenant (direct, coalesced and cache-only).", lab),
		pairs:     reg.Counter("logan_tenant_pairs_total", "Pairs served per tenant.", lab),
		shed:      reg.Counter("logan_tenant_shed_total", "Requests shed per tenant (quota, delay and deadline).", lab),
		cacheHits: reg.Counter("logan_tenant_cache_hits_total", "Pairs served from the result cache per tenant.", lab),
	}
	reg.GaugeFunc("logan_tenant_queued_pairs", "Pairs currently queued per tenant.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.q.tenPending[ten])
	}, lab)
	c.ttele[ten] = tt
	return tt
}

// drainPairsPerSec is the measured queue drain rate: the backend layer's
// live throughput estimate (cells/s) divided by the EWMA cells-per-pair
// of recent interactive batches. Zero until the first interactive batch
// calibrates the cells-per-pair estimate; bulk admission reads the same
// rate.
func (c *Coalescer) drainPairsPerSec() float64 {
	cpp := c.t.cellsPerPair.Value()
	if cpp <= 0 {
		return 0
	}
	thr := c.eng.be.Throughput()
	if thr <= 0 {
		return 0
	}
	return thr / cpp
}

// projectedDelay is the time, in seconds, the current queue takes to
// drain at the measured rate (0 until calibrated).
func (c *Coalescer) projectedDelay() float64 {
	c.mu.Lock()
	pending := c.q.pending
	c.mu.Unlock()
	if rate := c.drainPairsPerSec(); rate > 0 {
		return float64(pending) / rate
	}
	return 0
}

// RetryAfter estimates how long a shed caller should wait before
// retrying: the projected time to drain the current queue at the
// measured rate, floored at 2ms and capped at 30s. HTTP front ends render
// it as the Retry-After header on 429 responses.
func (c *Coalescer) RetryAfter() time.Duration {
	proj := time.Duration(c.projectedDelay() * float64(time.Second))
	return min(max(proj, minRetryAfter), 30*time.Second)
}

// Align submits pairs under cfg and blocks until their merged batch has
// run or ctx is done. Results are positionally aligned with pairs and
// bit-identical to a direct Aligner.Align of the same pairs under the
// same cfg; only requests with an equal configuration (same X, same
// scheme — matrices by identity) share a merged batch, and cached pairs
// are served from the result cache without reaching the engine.
//
// The request's tenant (WithTenant; anonymous when absent) selects its
// scheduling lane, pairs/sec quota and share of the drain rate; its
// priority class is interactive.
//
// The returned Stats describe this request's share of the merged batch:
// Pairs and Cells are the request's own, while WallTime and DeviceTime
// cover the whole merged batch the request rode in (the request's pairs
// were not separately timed; a fully cache-served request reports zero
// time). Stats.PerBackend is batch-scoped and therefore omitted here.
//
// Error contract: cfg and pairs are validated at admission, so an invalid
// configuration or pair fails only its own request and never the batch it
// would have merged into. ErrOverloaded reports admission-control
// shedding (retry later; ErrQuotaExceeded is its tenant-quota variant),
// ErrClosed reports a closed Coalescer or engine, ErrUnsupportedConfig a
// scheme the engine's backend cannot run. A ctx error on a queued request
// removes it from the queue and returns the ctx error — its buffers are
// free for reuse the moment Align returns, preserving Pair's zero-copy
// aliasing contract. If the request's batch is already executing when ctx
// fires, Align waits for that batch (bounded by one engine batch): a
// batch the request rides alone runs under ctx, so cancellation aborts
// the work itself and Align returns the ctx error, while a batch merged
// with other requests runs to completion and Align returns its result.
// Engine-sized requests that bypass the queue run alone, with ctx
// forwarded into the engine.
func (c *Coalescer) Align(ctx context.Context, pairs []Pair, cfg Config) (out []Alignment, st Stats, err error) {
	// Validate cfg before the empty-batch fast path, mirroring
	// Aligner.Align: an invalid configuration fails even with no pairs.
	if err := cfg.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if ctx == nil {
		// Tolerate nil like every other entry point: the queued path
		// selects on ctx.Done(), which would panic on a nil interface.
		ctx = context.Background()
	}
	// Shed configs the engine's backend cannot run at admission: letting
	// them queue would burn queue share and a batch cycle only to fan the
	// same error out at execute time (and starve valid traffic into 429s
	// under sustained unsupported spam).
	if !c.eng.Supports(cfg) {
		return nil, Stats{}, ErrUnsupportedConfig
	}
	if len(pairs) == 0 {
		return []Alignment{}, Stats{}, nil
	}
	ten := tenantOf(ctx)
	tt := c.tenantTele(ten)
	defer func() {
		if err == nil {
			tt.served(len(pairs))
		}
	}()
	// Engine-sized requests gain nothing from merging: run them directly,
	// keeping the queue (and the tenant's share of it) for the small
	// requests coalescing exists to serve. The engine meters the tenant
	// quota itself from ctx.
	if len(pairs) >= c.opt.MaxBatchPairs {
		if c.isClosed() {
			return nil, Stats{}, ErrClosed
		}
		c.t.direct.Inc()
		out, st, err = c.eng.Align(ctx, pairs, cfg)
		if errors.Is(err, ErrOverloaded) {
			c.t.shed[shedQuota].Inc()
			tt.shed.Inc()
		}
		return out, st, err
	}
	sc, err := c.eng.ingest(pairs, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	// Align blocks until the flusher is done with sc (see submit), so the
	// scratch goes back to the pool only after its last reader.
	defer c.eng.release(sc)
	in, res := sc.in, sc.res
	out = make([]Alignment, len(pairs))

	// Result-cache probe: hits land in out at once, without queueing,
	// quota charge or engine work. The misses move to the front of in,
	// and in[j] is the request's pair idx[j]: only they continue.
	ck := cfg.key()
	var (
		idx     []int
		digests [][32]byte // of the misses, for the cache fill
	)
	if c.opt.Cache != nil {
		idx = make([]int, 0, len(in))
		digests = make([][32]byte, 0, len(in))
		for i := range in {
			d := pairDigest(in[i])
			if r, ok := c.opt.Cache.get(cacheKey{digest: d, cfg: ck}); ok {
				out[i] = r
				continue
			}
			in[len(idx)] = in[i]
			idx = append(idx, i)
			digests = append(digests, d)
		}
		nhit := len(in) - len(idx)
		c.t.cacheHits.Add(float64(nhit))
		c.t.cacheMisses.Add(float64(len(idx)))
		if nhit > 0 {
			tt.cacheHits.Add(float64(nhit))
		}
		in, res = in[:len(idx)], res[:len(idx)]
	}

	var r coalesceResult
	if len(in) > 0 {
		r = c.submit(ctx, laneKey{ten: ten, class: classInteractive, cfg: ck}, &coalesceWaiter{in: in, out: res, tt: tt})
		if r.err != nil {
			return nil, Stats{}, r.err
		}
	}
	st = c.eng.finish(telemetry.TraceFrom(ctx), out, idx, res, r.wall, r.device)
	evicted := 0
	for j, i := range idx { // idx is nil without a cache
		evicted += c.opt.Cache.put(cacheKey{digest: digests[j], cfg: ck}, out[i])
	}
	if evicted > 0 {
		c.t.cacheEvict.Add(float64(evicted))
	}
	return out, st, nil
}

// extendBulk is the Coalescer's bulk entry, with the signature of
// Aligner.extendPrepared so an Overlapper or Mapper holds either one as
// its extend function. The pipeline built and checked the pairs itself,
// so the chunk skips the re-ingest, the result cache and the quota: it
// queues on the bulk lane of ctx's tenant, behind interactive work, and
// returns once its batch has run and out holds its results (Cells are
// the chunk's own, DeviceTime the whole batch's). Admission sheds it with ErrOverloaded
// like any request, and the pipelines' extend path retries. Engine-sized
// chunks run directly on the engine, as engine-sized Align requests do;
// either way a chunk that ran counts as one request of its tenant.
func (c *Coalescer) extendBulk(ctx context.Context, in []seq.Pair, out []xdrop.SeedResult, sch xdrop.Scheme, x int32) (backend.BatchStats, error) {
	ten := tenantOf(ctx)
	tt := c.tenantTele(ten)
	if len(in) >= c.opt.MaxBatchPairs {
		if c.isClosed() {
			return backend.BatchStats{}, ErrClosed
		}
		c.t.direct.Inc()
		bst, err := c.eng.extendPrepared(ctx, in, out, sch, x)
		if err == nil {
			tt.served(len(in))
		}
		return bst, err
	}
	r := c.submit(ctx, laneKey{ten: ten, class: classBulk, cfg: configKey{x: x, sch: sch}}, &coalesceWaiter{in: in, out: out, tt: tt})
	if r.err != nil {
		return backend.BatchStats{}, r.err
	}
	tt.served(len(in))
	bst := backend.BatchStats{Pairs: len(in), DeviceTime: r.device}
	for i := range out {
		bst.Cells += out[i].Cells()
	}
	return bst, nil
}

// tenantOf is ctx's tenant, the anonymous one when none is attached.
func tenantOf(ctx context.Context) *Tenant {
	if ten := TenantFrom(ctx); ten != nil {
		return ten
	}
	return anonymousTenant
}

// submit runs w, a request of either class, through admission onto
// key's lane and blocks until its batch has run or ctx is done.
func (c *Coalescer) submit(ctx context.Context, key laneKey, w *coalesceWaiter) coalesceResult {
	w.ctx, w.tr = ctx, telemetry.TraceFrom(ctx)
	w.ch = make(chan coalesceResult, 1)
	// Admission meters work that would reach the engine: misses only.
	now := c.now()
	adm := admission{
		floor: c.opt.MaxBatchPairs, rate: c.drainPairsPerSec(),
		target: c.opt.TargetDelay, timeLeft: noDeadline,
	}
	if dl, ok := ctx.Deadline(); ok {
		adm.timeLeft = dl.Sub(now)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return coalesceResult{err: ErrClosed}
	}
	reason, ok := c.q.submit(key, w, adm, now)
	c.mu.Unlock()
	if !ok {
		w.tt.shed.Inc()
		c.t.shed[reason].Inc()
		return coalesceResult{err: sheds[reason].err}
	}
	c.t.enqueued.Inc()

	// Wake the flusher if it is idle: it re-reads queue state before every
	// sleep, so a dropped send (buffer already full) is never a lost update.
	select {
	case c.kick <- struct{}{}:
	default:
	}

	select {
	case r := <-w.ch:
		return r
	case <-ctx.Done():
		c.mu.Lock()
		queued := c.q.abandon(key, w)
		c.mu.Unlock()
		if queued {
			// Still queued: removed before any batch took it, so the
			// caller may reuse its buffers immediately (the zero-copy
			// aliasing contract of Pair).
			return coalesceResult{err: ctx.Err()}
		}
		// The flusher already took the request: its batch is reading the
		// caller's buffers right now, so honor the aliasing contract by
		// waiting out that batch (bounded by one engine batch).
		return <-w.ch
	}
}

// Metrics snapshots the Coalescer's counters and queue gauges.
func (c *Coalescer) Metrics() CoalescerMetrics {
	c.mu.Lock()
	qr, qp, ql := c.q.queuedRequests(), c.q.pending, len(c.q.lanes)
	c.mu.Unlock()
	sd, sdl, sq := int64(c.t.shed[shedDelay].Value()), int64(c.t.shed[shedDeadline].Value()), int64(c.t.shed[shedQuota].Value())
	return CoalescerMetrics{
		Enqueued:       int64(c.t.enqueued.Value()),
		Shed:           sd + sdl + sq,
		ShedDelay:      sd,
		ShedDeadline:   sdl,
		ShedQuota:      sq,
		Direct:         int64(c.t.direct.Value()),
		MergedBatches:  int64(c.t.mergedBatches.Value()),
		MergedPairs:    int64(c.t.mergedPairs.Value()),
		MergedRequests: int64(c.t.mergedRequests.Value()),
		MaxMergedPairs: int64(c.t.maxMergedPairs.Value()),
		CacheHits:      int64(c.t.cacheHits.Value()),
		CacheMisses:    int64(c.t.cacheMisses.Value()),
		CacheEvictions: int64(c.t.cacheEvict.Value()),
		WaitNS:         int64(c.t.queueWait.Value() * 1e9),
		QueuedRequests: qr,
		QueuedPairs:    qp,
		QueuedLanes:    ql,
	}
}

// Close stops admission, runs every queued request, and waits for the
// flusher goroutine to exit. Idempotent. The underlying Aligner stays
// open — the Coalescer is a layer over it, not an owner.
func (c *Coalescer) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	if !already {
		close(c.done)
	}
	c.wg.Wait()
	return nil
}

func (c *Coalescer) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// run is the flusher goroutine. It is work-conserving: while any lane is
// non-empty it takes and executes batches back to back, and it sleeps only
// on an empty queue, until an enqueue kicks it or Close drains it.
func (c *Coalescer) run() {
	defer c.wg.Done()
	closing := false
	for {
		if key, ws, npairs, ok := c.take(); ok {
			c.execute(key, ws, npairs)
			continue
		}
		if closing {
			// Close stopped admission before closing done, so a queue
			// found empty after that stays empty.
			return
		}
		select {
		case <-c.kick:
		case <-c.done:
			closing = true
		}
	}
}

// take pops the next merged batch the scheduler hands out (whole requests
// of ONE lane in FIFO order until MaxBatchPairs is covered) and stamps its
// riders' queue waits. It reports false only when nothing is queued.
func (c *Coalescer) take() (laneKey, []*coalesceWaiter, int, bool) {
	c.mu.Lock()
	l, ws, npairs := c.q.take(c.opt.MaxBatchPairs)
	c.mu.Unlock()
	if l == nil {
		return laneKey{}, nil, 0, false
	}
	now := c.now()
	var wait time.Duration
	for _, w := range ws {
		d := now.Sub(w.enq)
		wait += d
		// The queue wait is a per-request stage: observe it onto the
		// request's trace when it carries one (which also feeds the shared
		// histogram), else straight into the engine's stage family.
		if w.tr != nil {
			w.tr.Observe(telemetry.StageCoalesceWait, d)
		} else {
			c.eng.stages.Observe(telemetry.StageCoalesceWait, d)
		}
	}
	c.t.queueWait.Add(wait.Seconds())
	return l.key, ws, npairs, true
}

// cancelOnly carries a context's cancellation and deadline but none of
// its values (tenant, trace): the flusher's context for a batch of one
// request.
type cancelOnly struct{ context.Context }

func (cancelOnly) Value(any) any { return nil }

// execute runs one merged batch of key's lane through the engine's one
// dispatch, Aligner.extendPrepared, copies each request's subrange of the
// results into its out, and delivers the batch's wall and device time to
// each request in submission order. It runs batches, not requests: every
// rider is in and out alike, and the one class-specific step is the
// calibration of interactive admission. Engine errors at this point are
// systemic (e.g. ErrClosed) or the lone rider's cancellation — per-pair
// and per-config problems were rejected at admission — so they fan out to
// every request in the batch.
func (c *Coalescer) execute(key laneKey, ws []*coalesceWaiter, npairs int) {
	merged := c.mergeBuf[:0]
	traced := false
	for _, w := range ws {
		merged = append(merged, w.in...)
		traced = traced || w.tr != nil
	}
	// A batch of one request runs under that request's cancellation, so
	// abandoning it (a DELETEd job's chunk) stops the engine per pair; a
	// merged batch serves other callers too and runs to completion.
	ctx := context.Background()
	if len(ws) == 1 {
		ctx = cancelOnly{ws[0].ctx}
	}
	// When any rider carries a trace, run the batch under a batch-level
	// trace: the engine observes the partition and kernel stages onto it
	// exactly once (batch-scoped, same as the untraced path), and the
	// delivery below copies its spans span-only onto every rider's trace.
	var btr *telemetry.Trace
	if traced {
		btr = c.eng.stages.StartTrace()
		ctx = telemetry.WithTrace(ctx, btr)
	}
	start := time.Now()
	if cap(c.resBuf) < npairs {
		c.resBuf = make([]xdrop.SeedResult, npairs)
	}
	res := c.resBuf[:npairs]
	bst, err := c.eng.extendPrepared(ctx, merged, res, key.cfg.sch, key.cfg.x)
	wall := time.Since(start)
	clear(merged) // drop sequence refs so the scratch doesn't pin callers
	c.mergeBuf = merged[:0]

	c.t.mergedBatches.Inc()
	c.t.mergedPairs.Add(float64(npairs))
	c.t.mergedRequests.Add(float64(len(ws)))
	if float64(npairs) > c.t.maxMergedPairs.Value() { // flusher is the only writer
		c.t.maxMergedPairs.Set(float64(npairs))
	}
	if err != nil {
		for _, w := range ws {
			w.ch <- coalesceResult{err: err}
		}
		return
	}
	// Calibrate interactive admission's work estimate from what the batch
	// actually cost. Bulk batches do not feed it: one pipeline chunk of
	// long pairs would cut the drain rate interactive admission projects
	// with by an order of magnitude.
	if key.class == classInteractive && npairs > 0 {
		c.t.cellsPerPair.ObserveEWMA(float64(bst.Cells)/float64(npairs), telemetryAlpha)
	}
	off := 0
	for _, w := range ws {
		off += copy(w.out, res[off:])
		if w.tr != nil {
			// Span-only copy: the histograms counted the batch once above.
			for _, sp := range btr.Spans() {
				w.tr.AddSpan(sp.Stage, sp.D)
			}
		}
		w.ch <- coalesceResult{wall: wall, device: bst.DeviceTime}
	}
}
