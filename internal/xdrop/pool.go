package xdrop

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"logan/internal/seq"
)

// ErrPoolClosed reports a batch submitted to a closed Pool.
var ErrPoolClosed = errors.New("xdrop: pool is closed")

// Pool is a persistent team of CPU alignment workers. Each worker owns a
// Workspace, so batch after batch runs without goroutine spin-up or DP
// buffer allocation — the reusable-thread-buffer discipline of minimap2
// applied to the SeqAn-style OpenMP loop the paper benchmarks against.
//
// A Pool is safe for concurrent use: batches submitted from multiple
// goroutines interleave across the workers. Batches are per-call
// parameterized: the same pool serves linear, affine and matrix batches
// concurrently (ExtendBatchScheme), the request-scoped execution model of
// the v2 public API.
type Pool struct {
	workers int
	jobs    chan *poolJob
	// mu guards closed and the job-channel sends: submissions hold the
	// read side, Close takes the write side, so a close can never race a
	// blocked send (in-flight batches always finish).
	mu     sync.RWMutex
	closed bool
}

// poolJob is one batch traversing the pool: workers claim pair indices
// from the shared cursor until the batch is exhausted or the batch's
// context is canceled.
type poolJob struct {
	ctx     context.Context
	pairs   []seq.Pair
	results []SeedResult
	sch     Scheme
	x       int32
	kernel  Kernel
	cursor  atomic.Int64
	wg      sync.WaitGroup

	errMu  sync.Mutex
	err    error
	errIdx int
}

// NewPool starts a pool of `workers` goroutines (0 = GOMAXPROCS).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, jobs: make(chan *poolJob)}
	for i := 0; i < workers; i++ {
		go func() {
			ws := NewWorkspace()
			for j := range p.jobs {
				j.run(ws)
				j.wg.Done()
			}
		}()
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Close stops the workers once in-flight batches drain. Later submissions
// fail with ErrPoolClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
}

// fail records an error for the batch, keeping the lowest-index one so the
// report is deterministic. Cancellation records with index -1 and
// therefore wins over per-pair errors.
func (j *poolJob) fail(idx int, err error) {
	j.errMu.Lock()
	if j.err == nil || idx < j.errIdx {
		j.err, j.errIdx = err, idx
	}
	j.errMu.Unlock()
}

func (j *poolJob) run(ws *Workspace) {
	for {
		// Cancellation check per pair: a canceled batch stops claiming
		// work after the in-flight extensions finish, so Align(ctx, ...)
		// returns promptly mid-batch instead of draining it.
		if j.ctx != nil {
			if err := j.ctx.Err(); err != nil {
				j.fail(-1, err)
				return
			}
		}
		idx := int(j.cursor.Add(1)) - 1
		if idx >= len(j.pairs) {
			return
		}
		p := &j.pairs[idx]
		// The kernel was chosen once at batch submission (SelectKernel), so
		// the per-cell loops themselves are mode-free.
		r, err := ws.extendSeed(p.Query, p.Target, p.SeedQPos, p.SeedTPos, p.SeedLen, j.sch, j.x, j.kernel, nil)
		if err != nil {
			j.fail(idx, err)
			continue
		}
		j.results[idx] = r
	}
}

// ExtendBatch aligns every pair into results (len(results) must equal
// len(pairs)) under linear scoring, reusing the pool's workers and their
// workspaces. On error (the lowest-index invalid seed) the surviving
// entries of results are still valid but the batch must be considered
// failed.
func (p *Pool) ExtendBatch(pairs []seq.Pair, results []SeedResult, sc Scoring, x int32) (BatchStats, error) {
	return p.ExtendBatchScheme(context.Background(), pairs, results, LinearScheme(sc), x)
}

// ExtendBatchScheme is ExtendBatch generalized over the scoring families
// and a context: every family runs on the per-worker workspaces, through
// the same seed wrapper and wavefront driver. A canceled ctx stops the
// batch after the in-flight pairs finish and returns the context's error.
//
// The extension kernel is chosen once per batch from the batch's config
// key (SelectKernel on scheme + X): eligible linear batches run the
// vector kernel, everything else the scalar one. The choice is recorded
// in the returned BatchStats.Kernel.
func (p *Pool) ExtendBatchScheme(ctx context.Context, pairs []seq.Pair, results []SeedResult, sch Scheme, x int32) (BatchStats, error) {
	return p.ExtendBatchKernel(ctx, pairs, results, sch, x, SelectKernel(sch, x))
}

// ExtendBatchKernel is ExtendBatchScheme with the kernel forced by the
// caller instead of selected from the config key. Non-linear schemes
// always run scalar regardless of k (the vector kernel only implements
// linear scoring); an ineligible linear config handed KernelVector falls
// back per pair inside ExtendVector. Scores are bit-identical across
// kernels — this entry point exists for benchmarks and differential
// tests.
func (p *Pool) ExtendBatchKernel(ctx context.Context, pairs []seq.Pair, results []SeedResult, sch Scheme, x int32, k Kernel) (BatchStats, error) {
	if len(results) != len(pairs) {
		panic("xdrop: results length does not match pairs")
	}
	if err := sch.Validate(); err != nil {
		return BatchStats{}, err
	}
	if sch.Kind != SchemeLinear {
		k = KernelScalar
	}
	// An empty batch runs no kernel, so it reports the zero stats
	// (Kernel: scalar zero value) rather than the would-be selection.
	if len(pairs) == 0 {
		return BatchStats{}, nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return BatchStats{}, err
		}
	}
	j := &poolJob{ctx: ctx, pairs: pairs, results: results, sch: sch, x: x, kernel: k}
	fan := min(p.workers, len(pairs))
	j.wg.Add(fan)
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return BatchStats{}, ErrPoolClosed
	}
	for i := 0; i < fan; i++ {
		p.jobs <- j
	}
	p.mu.RUnlock()
	j.wg.Wait()
	if j.err != nil {
		return BatchStats{}, j.err
	}
	var stats BatchStats
	stats.Kernel = k
	for i := range results {
		stats.Accumulate(results[i])
	}
	return stats, nil
}
