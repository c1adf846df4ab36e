// Package backend defines the pluggable execution layer of the alignment
// engine: a Backend turns a validated batch of seeded pairs into seed
// extension results, and the engine (package logan) dispatches over the
// interface instead of hard-coding the execution substrates. Two adapters
// wrap the substrates — the CPU worker pool (internal/xdrop.Pool) and a
// single simulated GPU (internal/cuda.Device via internal/core) — and
// Hybrid is the one partitioned executor over any set of them: the
// multi-GPU node of the paper's §IV-C (N devices, equal capacities) and
// the CPU+GPU scheduler (live throughput capacities) are the same
// scatter/gather loop over the LPT partitioner of internal/loadbal.
//
// Contract shared by all implementations:
//
//   - ExtendBatch writes exactly len(pairs) results into out (which must
//     have the same length), positionally aligned with the input, and the
//     scores are bit-identical across every Backend — the reproduction's
//     "equivalent accuracy" guarantee extended to scheduling.
//   - Input pairs are aliased, not copied; the caller must not mutate the
//     sequences until ExtendBatch returns.
//   - Every Backend is safe for concurrent ExtendBatch calls. Concurrency
//     is per resource, not per backend: CPU batches interleave across the
//     shared worker pool, GPU batches serialize per device (never on the
//     backend as a whole), so independent batches proceed on independent
//     devices.
//   - Throughput is a scheduling hint, not a measurement guarantee: it
//     starts from a perfmodel-derived estimate and is corrected online
//     from observed batches.
//   - Batches are request-scoped: every ExtendBatch call carries its own
//     xdrop.Scheme, X and context, so one backend serves mixed
//     configurations concurrently. Backends advertise the scoring families
//     they implement via Supports; the GPU backends are linear-DNA only
//     (the paper's kernel), and non-linear batches on them fail with
//     ErrUnsupportedScheme.
package backend

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"time"

	"logan/internal/seq"
	"logan/internal/xdrop"
)

// ErrClosed reports an ExtendBatch on a closed Backend. Every
// implementation checks it before anything else about the batch.
var ErrClosed = errors.New("backend: closed")

// ShardStats is the per-worker breakdown of one batch: which backend
// worker ran how much of it, and for how long. Time is the modeled device
// time for GPU shards and measured wall time for CPU shards (see the GCUPS
// contract in package logan).
type ShardStats struct {
	Backend string
	Pairs   int
	Cells   int64
	Time    time.Duration
	// Kernel names the extension kernel the shard ran on: "scalar" or
	// "vector" for CPU shards (chosen per batch by xdrop.SelectKernel),
	// "gpu" for device shards.
	Kernel string
}

// BatchStats summarizes one ExtendBatch call.
type BatchStats struct {
	Pairs int
	Cells int64
	// DeviceTime is the modeled GPU completion time of the batch: the
	// slowest device shard. Zero for pure-CPU execution.
	DeviceTime time.Duration
	// PartitionTime is the measured host time the backend spent deciding
	// and staging the split of this batch across workers (capacity
	// estimation, LPT assignment) before any kernel work started. Zero
	// for single-worker backends, which have nothing to partition. The
	// engine subtracts it from the batch wall time to separate the
	// "partition" and "kernel" stages in the telemetry spine.
	PartitionTime time.Duration
	// Shards is the per-worker breakdown in worker order. Single-worker
	// backends report one shard; Hybrid reports the CPU pool plus every
	// device that received pairs.
	Shards []ShardStats
}

// ExtendFunc is the one dispatch signature, that of Backend.ExtendBatch:
// it aligns in into the caller's out (len(out) == len(in)) under ctx.
// The engine's dispatch and the coalescer's bulk entry have it too, and
// the overlap and mapping pipelines extend through a value of it, so
// pairs go in, results come out, and nothing else crosses.
type ExtendFunc func(ctx context.Context, in []seq.Pair, out []xdrop.SeedResult, sch xdrop.Scheme, x int32) (BatchStats, error)

// Backend executes batches of seed extensions.
type Backend interface {
	// Name identifies the backend ("cpu", "gpu0", "gpu[2]", "hybrid"...).
	Name() string
	// ExtendBatch aligns pairs into out (len(out) must equal len(pairs))
	// under ctx: cancellation stops the batch at the backend's natural
	// granularity (per pair on the CPU pool, per memory chunk on a
	// device) and returns the context's error. Batches whose scheme is of
	// a family the backend does not Support fail with an error wrapping
	// ErrUnsupportedScheme.
	ExtendBatch(ctx context.Context, pairs []seq.Pair, out []xdrop.SeedResult, sch xdrop.Scheme, x int32) (BatchStats, error)
	// Supports reports whether the backend can execute batches under the
	// given scoring family. The CPU pool supports every family; the GPU
	// backends support only xdrop.SchemeLinear, reproducing the paper's
	// kernel (protein support is its §VIII future work). The hybrid
	// scheduler uses this to route non-linear batches to CPU shards.
	Supports(kind xdrop.SchemeKind) bool
	// Throughput returns the backend's current DP-cell rate estimate in
	// cells per wall-second of this process, the weight the hybrid
	// scheduler partitions on. All backends report the same currency —
	// host wall time, even for simulated devices — so the estimates are
	// directly comparable.
	Throughput() float64
	// Close releases the backend's resources. Further ExtendBatch calls
	// fail; Close is idempotent.
	Close() error
}

// rate is a concurrency-safe exponentially-weighted throughput estimate:
// seeded from a model-derived prior, corrected by observed (cells, time)
// samples. Observations always use host wall time — the one clock every
// backend shares — so CPU and (simulated) GPU estimates stay in the same
// unit and the hybrid split converges to this machine's real balance;
// the priors only shape the first batches. The EWMA keeps the split
// adaptive without letting one anomalous batch (e.g. a cold cache) swing
// the schedule.
type rate struct {
	bits atomic.Uint64
}

const rateAlpha = 0.3

func newRate(seed float64) *rate {
	r := &rate{}
	r.bits.Store(math.Float64bits(seed))
	return r
}

// estimate returns the current cells/second estimate.
func (r *rate) estimate() float64 { return math.Float64frombits(r.bits.Load()) }

// observe folds one batch sample into the estimate. Samples too small to
// time reliably are ignored.
func (r *rate) observe(cells int64, d time.Duration) {
	if cells <= 0 || d <= 0 {
		return
	}
	sample := float64(cells) / d.Seconds()
	for {
		old := r.bits.Load()
		cur := math.Float64frombits(old)
		next := cur + rateAlpha*(sample-cur)
		if r.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}
