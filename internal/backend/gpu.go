package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"logan/internal/core"
	"logan/internal/cuda"
	"logan/internal/perfmodel"
	"logan/internal/seq"
	"logan/internal/xdrop"
)

// ErrUnsupportedScheme reports a non-linear scoring family submitted to a
// device backend. The paper's kernel hard-wires linear DNA scoring (§VIII
// names protein support as future work), so core.Config can only express
// a linear batch; affine and matrix batches belong on the CPU pool, which
// the executor's routing guarantees for mixed worker sets.
var ErrUnsupportedScheme = errors.New("backend: scoring scheme not supported by the GPU kernel (linear DNA only; affine and matrix modes run on the CPU engine)")

// GPU executes batches on one simulated device via the LOGAN kernel
// pipeline of internal/core: each block takes its scores from the xdrop
// wavefront and replays the recorded band trace as the work the time
// model prices, so results are the CPU backend's by construction and
// DeviceTime is modeled from the same bands. The device's batch timeline
// is single-use, so concurrent batches serialize on this one device —
// per-device ownership, not an engine-wide lock (a second GPU backend
// over a second device proceeds independently).
type GPU struct {
	dev    *cuda.Device
	name   string
	mu     sync.Mutex
	rate   *rate
	closed atomic.Bool
}

// NewGPU wraps a single device. name distinguishes devices in per-shard
// stats ("gpu0", "gpu1", ...). The throughput seed is the wall-clock
// estimate of the simulator on this host (perfmodel.LocalSimGPUThroughput),
// not the modeled device's cell rate: the scheduler's currency is host
// wall time, and a modeled-seconds seed would be ~1000x off in the wrong
// unit.
func NewGPU(dev *cuda.Device, name string) *GPU {
	if name == "" {
		name = "gpu"
	}
	return &GPU{dev: dev, name: name, rate: newRate(perfmodel.LocalSimGPUThroughput())}
}

// NewV100 builds a GPU backend over a fresh Tesla V100 with the
// calibrated timer installed.
func NewV100(name string) (*GPU, error) {
	dev, err := cuda.NewDevice(cuda.TeslaV100())
	if err != nil {
		return nil, err
	}
	dev.Timer = perfmodel.NewV100Timer()
	return NewGPU(dev, name), nil
}

// Name implements Backend.
func (g *GPU) Name() string { return g.name }

// Supports implements Backend: the kernel is linear-DNA only, as in the
// paper (§VIII names protein support as future work).
func (g *GPU) Supports(kind xdrop.SchemeKind) bool { return kind == xdrop.SchemeLinear }

// ExtendBatch implements Backend. GCUPS accounting: the shard time is the
// modeled device completion time of the batch, matching the paper's
// device-side throughput metric. This is the one place a scheme is lowered
// onto the kernel configuration, so it is also the one family check:
// non-linear schemes fail with ErrUnsupportedScheme (see Supports).
func (g *GPU) ExtendBatch(ctx context.Context, pairs []seq.Pair, out []xdrop.SeedResult, sch xdrop.Scheme, x int32) (BatchStats, error) {
	if g.closed.Load() {
		return BatchStats{}, ErrClosed
	}
	if len(out) != len(pairs) {
		return BatchStats{}, fmt.Errorf("backend: %s: out length %d != pairs %d", g.name, len(out), len(pairs))
	}
	if !g.Supports(sch.Kind) {
		return BatchStats{}, fmt.Errorf("backend: %s: %w (got %v)", g.name, ErrUnsupportedScheme, sch.Kind)
	}
	if len(pairs) == 0 {
		return BatchStats{}, nil
	}
	start := time.Now()
	g.mu.Lock()
	res, err := core.AlignBatchContext(ctx, g.dev, pairs, core.Config{Scoring: sch.Linear, X: x})
	g.mu.Unlock()
	if err != nil {
		return BatchStats{}, err
	}
	copy(out, res.Results)
	// The scheduling estimate observes wall time — the currency shared
	// with the CPU backend — not the modeled device time reported below.
	g.rate.observe(res.Cells, time.Since(start))
	return BatchStats{
		Pairs:      len(pairs),
		Cells:      res.Cells,
		DeviceTime: res.DeviceTime,
		Shards:     []ShardStats{{Backend: g.name, Pairs: len(pairs), Cells: res.Cells, Time: res.DeviceTime, Kernel: "gpu"}},
	}, nil
}

// Throughput implements Backend.
func (g *GPU) Throughput() float64 { return g.rate.estimate() }

// Close implements Backend. Simulated devices hold no host resources
// beyond their ledgers, so Close only bars further use.
func (g *GPU) Close() error {
	g.closed.Store(true)
	return nil
}
