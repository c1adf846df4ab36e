package backend

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"logan/internal/perfmodel"
	"logan/internal/seq"
	"logan/internal/xdrop"
)

// CPU executes batches on a persistent internal/xdrop worker pool, the
// SeqAn-style multi-threaded baseline. Concurrent batches interleave
// across the shared workers.
type CPU struct {
	pool   *xdrop.Pool
	rate   *rate
	closed atomic.Bool
}

// NewCPU builds a CPU backend with the given worker count (0 =
// GOMAXPROCS).
func NewCPU(threads int) *CPU {
	p := xdrop.NewPool(threads)
	return &CPU{
		pool: p,
		rate: newRate(perfmodel.LocalCPUThroughput(p.Workers())),
	}
}

// Name implements Backend.
func (c *CPU) Name() string { return "cpu" }

// Supports implements Backend: the CPU pool executes every scoring
// family — linear, affine and substitution-matrix.
func (c *CPU) Supports(xdrop.SchemeKind) bool { return true }

// ExtendBatch implements Backend. GCUPS accounting: the shard time is
// measured host wall time, the only meaningful denominator for real CPU
// execution.
func (c *CPU) ExtendBatch(ctx context.Context, pairs []seq.Pair, out []xdrop.SeedResult, sch xdrop.Scheme, x int32) (BatchStats, error) {
	if c.closed.Load() {
		return BatchStats{}, ErrClosed
	}
	if len(out) != len(pairs) {
		return BatchStats{}, fmt.Errorf("backend: cpu: out length %d != pairs %d", len(out), len(pairs))
	}
	if len(pairs) == 0 {
		return BatchStats{}, nil
	}
	start := time.Now()
	st, err := c.pool.ExtendBatchScheme(ctx, pairs, out, sch, x)
	if errors.Is(err, xdrop.ErrPoolClosed) { // Close raced the check above
		err = ErrClosed
	}
	if err != nil {
		return BatchStats{}, err
	}
	wall := time.Since(start)
	// Only linear batches feed the throughput estimate: it is the weight
	// the hybrid scheduler uses to split *linear* batches against the
	// GPUs (non-linear batches go to the CPU shard alone, where the
	// weight is moot), and the affine/matrix kernels run at a very
	// different cells/second — folding them in would skew the linear
	// split under mixed traffic.
	if sch.Kind == xdrop.SchemeLinear {
		c.rate.observe(st.Cells, wall)
	}
	return BatchStats{
		Pairs: len(pairs),
		Cells: st.Cells,
		Shards: []ShardStats{{
			Backend: c.Name(), Pairs: len(pairs), Cells: st.Cells, Time: wall,
			Kernel: st.Kernel.String(),
		}},
	}, nil
}

// Throughput implements Backend.
func (c *CPU) Throughput() float64 { return c.rate.estimate() }

// Close implements Backend. The pool's own Close is idempotent and
// race-safe.
func (c *CPU) Close() error {
	c.closed.Store(true)
	c.pool.Close()
	return nil
}
