package logan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"logan/internal/backend"
	"logan/internal/seq"
	"logan/internal/telemetry"
	"logan/internal/xdrop"
)

// ErrClosed reports use of an Aligner after Close.
var ErrClosed = errors.New("logan: aligner is closed")

// EngineOptions configures the resources an Aligner keeps alive — the
// engine's shape, fixed for its lifetime. Per-request parameters (X and
// the scoring scheme) live in Config instead and are chosen per Align
// call, so one engine of a given shape serves arbitrarily many scoring
// configurations concurrently.
type EngineOptions struct {
	// Backend selects CPU, GPU or Hybrid execution (default CPU).
	Backend Backend
	// GPUs is the simulated device count for the GPU and Hybrid backends
	// (default 1).
	GPUs int
	// Threads is the CPU worker count for the CPU and Hybrid backends
	// (default GOMAXPROCS).
	Threads int
}

// Aligner is a long-lived alignment engine: create it once, feed it batch
// after batch. It holds the resources that the one-shot Align function
// would otherwise rebuild per call — a persistent CPU worker pool with
// per-worker DP workspaces, a persistent simulated V100 pool, or both for
// the Hybrid scheduler — plus pooled staging buffers, so steady-state
// batches are allocation-lean on the hot path. This is the host-side
// discipline of LOGAN's own pipeline, which keeps device pools and buffers
// alive across the many batches of a real assembly workload.
//
// The engine is request-scoped: every Align call carries its own Config
// (X, scoring scheme) and context, and concurrent calls may use different
// configs — linear, affine and substitution-matrix batches interleave on
// one engine with results bit-identical to dedicated engines. Affine and
// matrix configs are CPU-engine families: a Hybrid engine routes them to
// its CPU shards, a pure-GPU engine rejects them with
// ErrUnsupportedConfig (the kernel is linear-DNA, as in the paper).
//
// Execution is delegated to an internal backend chosen by
// EngineOptions.Backend; the engine itself only validates, stages and
// converts. An Aligner is safe for concurrent use, and concurrency is per
// resource, not per engine: CPU batches interleave across the shared
// worker pool, GPU batches serialize per device (two concurrent batches
// on a multi-GPU engine proceed on different devices), and Hybrid batches
// do both.
type Aligner struct {
	opt    EngineOptions
	be     backend.Backend
	closed atomic.Bool
	// scratch pools the per-request conversion and result staging.
	scratch sync.Pool

	// tele is the engine's metric registry — the single source every view
	// (library callers, /metrics, /statz) reads. stages is the pipeline
	// stage-latency histogram family within it; the engine observes the
	// partition/kernel/scatter stages itself and upstream layers (the
	// coalescer, the HTTP server) observe admit and coalesce_wait into the
	// same family.
	tele   *telemetry.Registry
	stages *telemetry.Stages
	// Per-batch totals, updated once per backend dispatch (never per pair).
	mBatches, mPairs, mCells *telemetry.Counter
	// binst caches the per-backend instrument bundle by shard name so the
	// steady-state batch path updates counters through a read-locked map
	// hit instead of registry lookups (which build label keys).
	bmu   sync.RWMutex
	binst map[string]*backendTelemetry
	// kinst caches the per-kernel-variant instrument bundle ("scalar",
	// "vector", "gpu") the same way: each batch records which extension
	// kernel its shards ran on (chosen once per batch by the config-keyed
	// selection in internal/xdrop).
	kmu   sync.RWMutex
	kinst map[string]*kernelTelemetry
}

// backendTelemetry is the cached instrument bundle of one backend shard
// name ("cpu", "gpu0", ...): lifetime totals plus EWMA-smoothed gauges.
type backendTelemetry struct {
	pairs, cells, busy *telemetry.Counter
	gcups, occupancy   *telemetry.Gauge
}

// kernelTelemetry is the cached instrument pair of one extension-kernel
// variant: lifetime pair and DP-cell totals.
type kernelTelemetry struct {
	pairs, cells *telemetry.Counter
}

// telemetryAlpha smooths the per-backend GCUPS and occupancy gauges with
// the same weight the backend layer uses for its throughput estimates.
const telemetryAlpha = 0.3

// batchScratch is the reusable per-request staging: the validated
// sequence pairs handed to the backend and the raw seed-extension results.
type batchScratch struct {
	in  []seq.Pair
	res []xdrop.SeedResult
}

// NewAligner builds an engine of the given shape. The options carry only
// resources (Backend, GPUs, Threads); alignment parameters are supplied
// per call via Config.
func NewAligner(opt EngineOptions) (*Aligner, error) {
	be, err := newBackend(opt)
	if err != nil {
		return nil, err
	}
	a := &Aligner{opt: opt, be: be, tele: telemetry.NewRegistry(),
		binst: map[string]*backendTelemetry{}, kinst: map[string]*kernelTelemetry{}}
	a.scratch.New = func() any { return new(batchScratch) }
	a.stages = telemetry.NewStages(a.tele, "logan_stage_duration_seconds",
		"Per-stage request latency through the pipeline (admit, coalesce_wait, partition, kernel, scatter).")
	a.mBatches = a.tele.Counter("logan_engine_batches_total", "Batches dispatched to the execution backend.")
	a.mPairs = a.tele.Counter("logan_engine_pairs_total", "Sequence pairs aligned by the engine.")
	a.mCells = a.tele.Counter("logan_engine_cells_total", "DP cells computed by the engine.")
	a.tele.GaugeFunc("logan_engine_throughput_cells_per_second",
		"The backend layer's live EWMA throughput estimate (the hybrid scheduler's partitioning weight).",
		a.be.Throughput)
	return a, nil
}

// Telemetry returns the engine's metric registry. Every layer stacked on
// this engine (coalescer, overlap subsystem, logan-serve) registers its
// instruments here, so one registry — and one atomic Snapshot of it —
// describes the whole pipeline.
func (a *Aligner) Telemetry() *telemetry.Registry { return a.tele }

// observeStage records one stage duration: onto the request's trace when
// the caller attached one to the context (which also feeds the shared
// histogram family), otherwise straight into the family.
func (a *Aligner) observeStage(tr *telemetry.Trace, stage string, d time.Duration) {
	if tr != nil {
		tr.Observe(stage, d)
		return
	}
	a.stages.Observe(stage, d)
}

// backendTele returns the cached instrument bundle for one backend shard
// name, registering it on first sight.
func (a *Aligner) backendTele(name string) *backendTelemetry {
	a.bmu.RLock()
	bt := a.binst[name]
	a.bmu.RUnlock()
	if bt != nil {
		return bt
	}
	a.bmu.Lock()
	defer a.bmu.Unlock()
	if bt := a.binst[name]; bt != nil {
		return bt
	}
	l := telemetry.L("backend", name)
	bt = &backendTelemetry{
		pairs:     a.tele.Counter("logan_backend_pairs_total", "Pairs executed per backend shard.", l),
		cells:     a.tele.Counter("logan_backend_cells_total", "DP cells computed per backend shard.", l),
		busy:      a.tele.Counter("logan_backend_busy_seconds_total", "Shard busy time per backend (modeled device time for GPUs, measured wall for CPU).", l),
		gcups:     a.tele.Gauge("logan_backend_gcups", "EWMA-smoothed per-shard throughput in GCUPS (giga cell updates per second).", l),
		occupancy: a.tele.Gauge("logan_backend_occupancy", "EWMA-smoothed fraction of the batch wall time this shard was busy.", l),
	}
	a.binst[name] = bt
	return bt
}

// kernelTele returns the cached instrument bundle for one kernel
// variant, registering it on first sight.
func (a *Aligner) kernelTele(variant string) *kernelTelemetry {
	a.kmu.RLock()
	kt := a.kinst[variant]
	a.kmu.RUnlock()
	if kt != nil {
		return kt
	}
	a.kmu.Lock()
	defer a.kmu.Unlock()
	if kt := a.kinst[variant]; kt != nil {
		return kt
	}
	l := telemetry.L("variant", variant)
	kt = &kernelTelemetry{
		pairs: a.tele.Counter("logan_kernel_pairs_total", "Pairs executed per extension-kernel variant (scalar, vector, gpu).", l),
		cells: a.tele.Counter("logan_kernel_cells_total", "DP cells computed per extension-kernel variant.", l),
	}
	a.kinst[variant] = kt
	return kt
}

// recordBatch folds one completed backend dispatch into the engine totals
// and the per-shard instruments. wall is the host wall time of the
// dispatch, the occupancy denominator.
func (a *Aligner) recordBatch(bst *backend.BatchStats, wall time.Duration) {
	a.mBatches.Inc()
	a.mPairs.Add(float64(bst.Pairs))
	a.mCells.Add(float64(bst.Cells))
	for _, sh := range bst.Shards {
		bt := a.backendTele(sh.Backend)
		bt.pairs.Add(float64(sh.Pairs))
		bt.cells.Add(float64(sh.Cells))
		bt.busy.Add(sh.Time.Seconds())
		if sh.Time > 0 {
			bt.gcups.ObserveEWMA(float64(sh.Cells)/sh.Time.Seconds()/1e9, telemetryAlpha)
		}
		if wall > 0 {
			occ := min(sh.Time.Seconds()/wall.Seconds(), 1)
			bt.occupancy.ObserveEWMA(occ, telemetryAlpha)
		}
		if sh.Kernel != "" {
			kt := a.kernelTele(sh.Kernel)
			kt.pairs.Add(float64(sh.Pairs))
			kt.cells.Add(float64(sh.Cells))
		}
	}
}

// newBackend maps EngineOptions onto the execution layer: the pluggable
// dispatch that replaced the hard-coded CPU/GPU switch in align.
func newBackend(opt EngineOptions) (backend.Backend, error) {
	gpus := opt.GPUs
	if gpus <= 0 {
		gpus = 1
	}
	switch opt.Backend {
	case CPU:
		return backend.NewCPU(opt.Threads), nil
	case GPU:
		if gpus == 1 {
			return backend.NewV100("gpu0")
		}
		return backend.NewV100MultiGPU(gpus)
	case Hybrid:
		return backend.NewHybrid(opt.Threads, gpus)
	default:
		return nil, fmt.Errorf("logan: unknown backend %d", opt.Backend)
	}
}

// Engine returns the engine's configured shape.
func (a *Aligner) Engine() EngineOptions { return a.opt }

// Supports reports whether this engine's backend can execute cfg's
// scoring mode: always true on CPU and Hybrid engines, false for affine
// and matrix configs on a pure-GPU engine (which Align rejects with
// ErrUnsupportedConfig). Callers multiplexing mixed traffic can probe
// this to route requests instead of paying a failed call.
func (a *Aligner) Supports(cfg Config) bool {
	return a.be.Supports(cfg.scheme().Kind)
}

// Close releases the engine's workers. In-flight batches finish; further
// calls fail with ErrClosed.
func (a *Aligner) Close() error {
	if a.closed.Swap(true) {
		return nil
	}
	return a.be.Close()
}

// Align aligns one batch on the engine under the given context and
// per-request configuration. Results are positionally aligned with the
// input. Cancelling ctx abandons the batch promptly (per pair on the CPU
// pool, per memory chunk on a device) and returns the context's error.
func (a *Aligner) Align(ctx context.Context, pairs []Pair, cfg Config) ([]Alignment, Stats, error) {
	return a.align(ctx, nil, pairs, cfg)
}

// AlignInto is Align reusing dst for the results when it has capacity;
// callers looping over batches can hand the previous slice back and keep
// the steady state allocation-lean.
func (a *Aligner) AlignInto(ctx context.Context, dst []Alignment, pairs []Pair, cfg Config) ([]Alignment, Stats, error) {
	return a.align(ctx, dst, pairs, cfg)
}

// align runs one batch using the engine's resources and cfg's parameters.
func (a *Aligner) align(ctx context.Context, dst []Alignment, pairs []Pair, cfg Config) ([]Alignment, Stats, error) {
	if a.closed.Load() {
		return nil, Stats{}, ErrClosed
	}
	if err := cfg.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	// Direct submissions are metered against the context tenant's
	// pairs/sec quota here; coalesced traffic was metered at coalescer
	// admission (its batches run under contexts that carry no tenant, so
	// the two never double-charge). extendPrepared stays unmetered: the
	// pipelines' extension chunks are internal work the /jobs store
	// already admission-controls at job granularity.
	if ten := TenantFrom(ctx); ten != nil {
		if !ten.takePairs(len(pairs), time.Now()) {
			return nil, Stats{}, ErrQuotaExceeded
		}
	}
	start := time.Now()
	sc, err := a.ingest(pairs, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	defer a.release(sc)
	tr := telemetry.TraceFrom(ctx)
	a.observeStage(tr, telemetry.StageAdmit, time.Since(start))

	bst, err := a.extendPrepared(ctx, sc.in, sc.res, cfg.scheme(), cfg.X)
	if err != nil {
		return nil, Stats{}, err
	}
	if cap(dst) < len(pairs) {
		dst = make([]Alignment, len(pairs))
	}
	dst = dst[:len(pairs)]
	st := a.finish(tr, dst, nil, sc.res, time.Since(start), bst.DeviceTime)
	for _, sh := range bst.Shards {
		st.PerBackend = append(st.PerBackend, BackendStats{
			Name: sh.Backend, Pairs: sh.Pairs, Cells: sh.Cells, Time: sh.Time,
		})
	}
	return dst, st, nil
}

// ingest is the one ingest loop of every request path, Aligner.Align and
// Coalescer.Align: it validates and converts pairs under cfg into pooled
// scratch before any work runs, so one bad pair fails its own request,
// with a request-relative index, and never a batch it would have shared.
// sc.in holds the converted pairs and sc.res has room for their results;
// hand the scratch back with release once the results are converted.
func (a *Aligner) ingest(pairs []Pair, cfg Config) (*batchScratch, error) {
	sc := a.scratch.Get().(*batchScratch)
	if cap(sc.in) < len(pairs) {
		sc.in = make([]seq.Pair, len(pairs))
	}
	if cap(sc.res) < len(pairs) {
		sc.res = make([]xdrop.SeedResult, len(pairs))
	}
	sc.in, sc.res = sc.in[:len(pairs)], sc.res[:len(pairs)]
	for i := range pairs {
		p, err := cfg.ingestPair(&pairs[i], i)
		if err != nil {
			a.release(sc)
			return nil, err
		}
		sc.in[i] = p
	}
	return sc, nil
}

// release returns ingest's scratch to the pool, dropping its sequence
// references first so pooled scratch does not pin caller buffers between
// batches.
func (a *Aligner) release(sc *batchScratch) {
	clear(sc.in[:cap(sc.in)])
	a.scratch.Put(sc)
}

// finish is the last step of every request path: it converts the engine
// results of one request into its Alignments — res[j] into dst[idx[j]],
// or into dst[j] when idx is nil — observes the scatter stage onto tr,
// and returns the request's Stats: the pairs and cells of all of dst, and
// the wall and device time of the batch that computed res with GCUPS
// over them.
func (a *Aligner) finish(tr *telemetry.Trace, dst []Alignment, idx []int, res []xdrop.SeedResult, wall, device time.Duration) Stats {
	start := time.Now()
	for j := range res {
		i := j
		if idx != nil {
			i = idx[j]
		}
		dst[i] = toAlignment(res[j])
	}
	st := Stats{Pairs: len(dst), WallTime: wall, DeviceTime: device}
	for i := range dst {
		st.Cells += dst[i].Cells
	}
	st.GCUPS = st.gcups(a.opt.Backend)
	a.observeStage(tr, telemetry.StageScatter, time.Since(start))
	return st
}

// extendPrepared is the engine's one dispatch onto its backend: it runs a
// batch of already-validated engine-level pairs and exposes the raw
// seed-extension results (scores plus per-direction band/cell accounting)
// that the public Alignment type compresses away. Every path ends here —
// Align/AlignInto, the coalescer's flusher, and the overlap
// and mapping pipelines, directly or through the coalescer's bulk entry
// (which has this signature): their extension chunks share the engine's
// worker pools, device locks and scheduler with Align traffic, and the
// extra detail (band widths) feeds their band statistics. It owns the
// batch IDs: every pair is renumbered by position.
func (a *Aligner) extendPrepared(ctx context.Context, in []seq.Pair, out []xdrop.SeedResult, sch xdrop.Scheme, x int32) (backend.BatchStats, error) {
	if a.closed.Load() {
		return backend.BatchStats{}, ErrClosed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return backend.BatchStats{}, err
	}
	for i := range in {
		in[i].ID = i
	}
	execStart := time.Now()
	bst, err := a.be.ExtendBatch(ctx, in, out, sch, x)
	if err != nil {
		return backend.BatchStats{}, mapBackendErr(err)
	}
	execWall := time.Since(execStart)
	tr := telemetry.TraceFrom(ctx)
	a.observeStage(tr, telemetry.StagePartition, bst.PartitionTime)
	a.observeStage(tr, telemetry.StageKernel, execWall-bst.PartitionTime)
	a.recordBatch(&bst, execWall)
	return bst, nil
}

// mapBackendErr translates the execution layer's sentinel errors into the
// public ones — shared by every path that dispatches onto the backend, so
// internal sentinels never leak to callers.
func mapBackendErr(err error) error {
	switch {
	case errors.Is(err, backend.ErrClosed):
		return ErrClosed
	case errors.Is(err, backend.ErrUnsupportedScheme):
		return ErrUnsupportedConfig
	}
	return err
}

// gcups applies the per-backend denominator contract documented on
// Stats.GCUPS: device time for GPU, wall time for CPU and Hybrid, 0 when
// the denominator is zero (never NaN or Inf).
func (s *Stats) gcups(b Backend) float64 {
	denom := s.WallTime
	if b == GPU {
		denom = s.DeviceTime
	}
	if denom <= 0 {
		return 0
	}
	return float64(s.Cells) / denom.Seconds() / 1e9
}
