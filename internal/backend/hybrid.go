package backend

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"logan/internal/loadbal"
	"logan/internal/seq"
	"logan/internal/xdrop"
)

// Hybrid is the partitioned executor: the one place a batch is split,
// run on several workers and gathered. It weighs pairs by length, splits
// them with loadbal's LPT greedy (paper §IV-C, Fig. 7), runs every shard
// concurrently through the worker's own ExtendBatch (a CPU shard
// interleaves on the shared pool, a GPU shard serializes on its own
// device's lock — the only device lock in the tree), and merges the
// results in input order. Scores are bit-identical to single-backend
// execution because partitioning never changes per-pair results.
//
// Two capacity rules cover the two worker sets the engine builds, and the
// constructor picks between them from the set itself:
//
//   - a homogeneous device set (NewV100MultiGPU, "gpu[N]") splits with
//     equal capacities — exactly the paper's multi-GPU node, so the split,
//     the per-shard cells and the modeled DeviceTime are a deterministic
//     function of the batch;
//   - any other set (NewHybrid: the CPU pool plus one GPU per device,
//     "hybrid") splits by the workers' live Throughput estimates, which
//     generalizes the same LPT to workers of unequal speed.
//
// Concurrent ExtendBatch calls are safe and do not serialize on the
// Hybrid: every worker's own concurrency contract applies shard-wise.
type Hybrid struct {
	name    string
	workers []Backend
	// equalCaps selects the homogeneous rule: every eligible worker weighs
	// 1 instead of its Throughput estimate.
	equalCaps bool
	closed    atomic.Bool
	scratch   sync.Pool // *hybridScratch
}

// hybridScratch recycles the per-batch staging of one ExtendBatch call:
// the capacity and weight vectors, the per-shard outcomes, and each
// shard's gathered pairs and results.
type hybridScratch struct {
	caps    []float64
	weights []int64
	outs    []shardOut
	subs    []shardScratch
}

type shardScratch struct {
	pairs []seq.Pair
	res   []xdrop.SeedResult
}

// shardOut is one worker's outcome within a hybrid batch.
type shardOut struct {
	stats BatchStats
	err   error
}

// NewHybrid builds the CPU+GPU executor over a fresh CPU pool of the
// given width (0 = GOMAXPROCS) and gpus simulated V100s (minimum 1).
func NewHybrid(threads, gpus int) (*Hybrid, error) {
	devs, err := newV100s(max(gpus, 1))
	if err != nil {
		return nil, err
	}
	return NewHybridOver(append([]Backend{NewCPU(threads)}, devs...)...)
}

// NewV100MultiGPU builds the paper's multi-GPU node: the executor over n
// fresh Tesla V100s ("gpu0"...), split by length with equal capacities.
func NewV100MultiGPU(n int) (*Hybrid, error) {
	devs, err := newV100s(n)
	if err != nil {
		return nil, err
	}
	return NewHybridOver(devs...)
}

func newV100s(n int) ([]Backend, error) {
	devs := make([]Backend, max(n, 0))
	for d := range devs {
		g, err := NewV100(fmt.Sprintf("gpu%d", d))
		if err != nil {
			return nil, err
		}
		devs[d] = g
	}
	return devs, nil
}

// NewHybridOver composes existing backends into one scheduled worker set.
// The Hybrid takes ownership: its Close closes every worker. A set made
// only of GPU backends is the homogeneous "gpu[N]" node (equal
// capacities); anything else is "hybrid" (throughput capacities).
func NewHybridOver(workers ...Backend) (*Hybrid, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("backend: hybrid needs at least one worker")
	}
	h := &Hybrid{name: fmt.Sprintf("gpu[%d]", len(workers)), workers: workers, equalCaps: true}
	for _, w := range workers {
		if _, ok := w.(*GPU); !ok {
			h.name, h.equalCaps = "hybrid", false
			break
		}
	}
	h.scratch.New = func() any {
		return &hybridScratch{
			caps: make([]float64, len(workers)),
			outs: make([]shardOut, len(workers)),
			subs: make([]shardScratch, len(workers)),
		}
	}
	return h, nil
}

// Name implements Backend.
func (h *Hybrid) Name() string { return h.name }

// Supports implements Backend: the executor can run any family at least
// one of its workers supports — every family when a CPU pool is part of
// the set (affine and matrix batches route to it, see ExtendBatch), linear
// only for a device set.
func (h *Hybrid) Supports(kind xdrop.SchemeKind) bool {
	for _, w := range h.workers {
		if w.Supports(kind) {
			return true
		}
	}
	return false
}

// ExtendBatch implements Backend. GCUPS accounting: shard times mix
// denominators (measured wall for a CPU shard, modeled device time for
// GPU shards), so batch-level throughput of a mixed set must be taken
// over wall time — see the Stats.GCUPS contract in package logan.
// DeviceTime reports the slowest GPU shard, the multi-GPU completion time
// of §IV-C.
//
// Scoring-family routing: workers that do not Support the scheme's family
// are excluded from the partition, so non-linear (affine, matrix) batches
// go entirely to the CPU shards — the GPU kernel stays linear-DNA, as in
// the paper — and mixed traffic on one engine still schedules linear
// batches across every worker. A family no worker supports fails with
// ErrUnsupportedScheme before any worker is called.
func (h *Hybrid) ExtendBatch(ctx context.Context, pairs []seq.Pair, out []xdrop.SeedResult, sch xdrop.Scheme, x int32) (BatchStats, error) {
	if h.closed.Load() {
		return BatchStats{}, ErrClosed
	}
	if len(out) != len(pairs) {
		return BatchStats{}, fmt.Errorf("backend: %s: out length %d != pairs %d", h.name, len(out), len(pairs))
	}
	st := BatchStats{Pairs: len(pairs)}
	if len(pairs) == 0 {
		return st, nil
	}

	sc := h.scratch.Get().(*hybridScratch)
	defer func() {
		for i := range sc.subs {
			clear(sc.subs[i].pairs[:cap(sc.subs[i].pairs)])
		}
		h.scratch.Put(sc)
	}()
	partStart := time.Now()
	eligible := 0
	for w, worker := range h.workers {
		if !worker.Supports(sch.Kind) {
			// Negative capacity is loadbal's exclusion signal: the bucket
			// never receives items, even if every estimate degrades to
			// zero — a non-linear pair must not reach a GPU kernel.
			sc.caps[w] = -1
			continue
		}
		eligible++
		if h.equalCaps {
			sc.caps[w] = 1
			continue
		}
		// Clamp to the "no estimate" zero rather than exclusion, should a
		// throughput estimate ever go non-positive.
		sc.caps[w] = max(worker.Throughput(), 0)
	}
	if eligible == 0 {
		return BatchStats{}, fmt.Errorf("backend: %s: %w (got %v)", h.name, ErrUnsupportedScheme, sch.Kind)
	}
	sc.weights = loadbal.PairWeights(pairs, sc.weights)
	buckets := loadbal.PartitionCapacities(sc.weights, sc.caps, loadbal.ByLength)
	st.PartitionTime = time.Since(partStart)

	outs := sc.outs
	clear(outs)
	var wg sync.WaitGroup
	for w, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, bucket []int) {
			defer wg.Done()
			sub := &sc.subs[w]
			if cap(sub.pairs) < len(bucket) {
				sub.pairs = make([]seq.Pair, len(bucket))
			}
			sub.pairs = sub.pairs[:len(bucket)]
			for k, idx := range bucket {
				sub.pairs[k] = pairs[idx]
			}
			if cap(sub.res) < len(bucket) {
				sub.res = make([]xdrop.SeedResult, len(bucket))
			}
			sub.res = sub.res[:len(bucket)]
			bst, err := h.workers[w].ExtendBatch(ctx, sub.pairs, sub.res, sch, x)
			if err != nil {
				outs[w].err = fmt.Errorf("backend: %s: %s shard: %w", h.name, h.workers[w].Name(), err)
				return
			}
			for k, idx := range bucket {
				out[idx] = sub.res[k]
			}
			outs[w].stats = bst
		}(w, bucket)
	}
	wg.Wait()

	for w := range outs {
		if outs[w].err != nil {
			return BatchStats{}, outs[w].err
		}
		sh := &outs[w].stats
		if sh.Pairs == 0 {
			continue
		}
		st.Cells += sh.Cells
		if sh.DeviceTime > st.DeviceTime {
			st.DeviceTime = sh.DeviceTime
		}
		st.Shards = append(st.Shards, sh.Shards...)
	}
	return st, nil
}

// Throughput implements Backend: the worker set's aggregate estimate.
func (h *Hybrid) Throughput() float64 {
	var t float64
	for _, w := range h.workers {
		t += w.Throughput()
	}
	return t
}

// Close implements Backend.
func (h *Hybrid) Close() error {
	if h.closed.Swap(true) {
		return nil
	}
	var firstErr error
	for _, w := range h.workers {
		if err := w.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
