package cuda

import (
	"fmt"

	"logan/internal/par"
)

// LaunchConfig is the kernel launch geometry, the analogue of CUDA's
// <<<grid, block, shared>>> triple.
type LaunchConfig struct {
	Name     string
	Grid     int  // number of blocks
	Block    int  // threads per block
	Shared   int  // shared-memory bytes reserved per block
	PerBlock bool // collect per-block stats (costs Grid * 32 bytes)
}

// KernelFunc is the body of a simulated kernel, invoked once per block.
// Bodies must be pure with respect to block ordering: blocks may run
// concurrently on the host pool and must not communicate (CUDA offers no
// inter-block synchronization within a launch either).
type KernelFunc func(b *BlockCtx)

// BlockCtx is the per-block execution context handed to kernel bodies. It
// carries the block's coordinates and the work-accounting interface.
type BlockCtx struct {
	BlockIdx int // block index within the grid
	GridDim  int // total blocks
	BlockDim int // threads per block

	spec *DeviceSpec
	// acc is the block's accounting in the shape of a launch's, so Launch
	// folds it in with KernelStats.merge.
	acc KernelStats
}

// Threads returns the number of threads in this block.
func (b *BlockCtx) Threads() int { return b.BlockDim }

// Step records one synchronized SIMT step of the block in which `active`
// lanes each execute `opsPerLane` INT32 operations — for LOGAN, one
// anti-diagonal segment sweep. Inactive lanes within a warp still consume
// issue slots, which is exactly the warp-fill penalty the accounting keeps.
func (b *BlockCtx) Step(active, opsPerLane int) {
	if active <= 0 || opsPerLane <= 0 {
		return
	}
	ws := b.spec.WarpSize
	warps := (active + ws - 1) / ws
	b.acc.WarpInstrs += int64(warps) * int64(opsPerLane)
	b.acc.LaneOps += int64(active) * int64(opsPerLane)
	b.acc.Iterations++
	fill := float64(active) / float64(warps*ws)
	nop := float64(opsPerLane)
	b.acc.Iter.SumNop += nop
	b.acc.Iter.SumNopFill += nop * fill
	b.acc.Iter.SumNopAct += nop * float64(active)
	b.acc.Iter.Count++
}

// Sync models __syncthreads(); the barrier itself is free in counts (its
// cost appears in the time model as per-barrier overhead amortized over
// resident blocks) but is tallied so the model knows the block's
// dependent-step count.
func (b *BlockCtx) Sync() {
	b.acc.Iterations++
	b.acc.Barriers++
}

// ReduceMax32 accounts the in-warp parallel max-reduction LOGAN uses to
// find the best score on an anti-diagonal of n int32 values (paper Alg. 2
// discussion): values are reduced warp-by-warp with shuffle instructions,
// then across warps via shared memory, for ceil(n/32)*log2(32) +
// log2(warps) warp instructions. Only the cost is simulated — the kernels
// take their scores from the host implementation — and an empty
// reduction costs nothing.
func (b *BlockCtx) ReduceMax32(n int) {
	if n <= 0 {
		return
	}
	ws := b.spec.WarpSize
	warps := (n + ws - 1) / ws
	logW := bitsLen(ws - 1)
	instr := int64(warps)*int64(logW) + int64(bitsLen(warps-1))
	b.acc.WarpInstrs += instr
	b.acc.LaneOps += instr * int64(ws) / 2 // shuffle halves active lanes per step
	b.acc.Reductions++
}

// GlobalRead accounts a global-memory read of the given byte count as one
// dependent access event (issued SIMT-wide, so latency is exposed once per
// call, not per lane). Coalesced reads move exactly `bytes`; uncoalesced
// reads are amplified by UncoalescedFactor, modeling per-lane 32-byte
// sectors.
func (b *BlockCtx) GlobalRead(class TrafficClass, bytes int64, coalesced bool) {
	if !coalesced {
		bytes *= UncoalescedFactor
	}
	if class == TrafficStream {
		b.acc.StreamReadBytes += bytes
	} else {
		b.acc.ReuseReadBytes += bytes
	}
	b.acc.AccessEvents++
}

// GlobalWrite accounts a global-memory write as one access event.
func (b *BlockCtx) GlobalWrite(class TrafficClass, bytes int64, coalesced bool) {
	if !coalesced {
		bytes *= UncoalescedFactor
	}
	if class == TrafficStream {
		b.acc.StreamWriteBytes += bytes
	} else {
		b.acc.ReuseWriteBytes += bytes
	}
	b.acc.AccessEvents++
}

// DeclareReuseFootprint tells the cache model how many bytes of this
// block's reuse-class traffic are live at once (LOGAN: three anti-diagonal
// buffers). The maximum over blocks, multiplied by device residency, is the
// working set the L2 must hold for reuse traffic to hit.
func (b *BlockCtx) DeclareReuseFootprint(bytes int64) {
	b.acc.ReuseFootprint = max(b.acc.ReuseFootprint, bytes)
}

func bitsLen(x int) int {
	n := 0
	for x > 0 {
		n++
		x >>= 1
	}
	return n
}

// Launch executes the kernel over the grid on the host worker pool and
// returns its work accounting. The launch is synchronous; use Stream for
// asynchronous composition. Counts are deterministic regardless of pool
// width because per-block statistics are merged with commutative sums.
func (d *Device) Launch(cfg LaunchConfig, kernel KernelFunc) (KernelStats, error) {
	if cfg.Grid <= 0 {
		return KernelStats{}, fmt.Errorf("cuda: launch %q: grid must be positive, got %d", cfg.Name, cfg.Grid)
	}
	if cfg.Block <= 0 || cfg.Block > d.Spec.MaxThreadsPerBlock {
		return KernelStats{}, fmt.Errorf("cuda: launch %q: block size %d outside (0,%d]",
			cfg.Name, cfg.Block, d.Spec.MaxThreadsPerBlock)
	}
	if cfg.Shared > d.Spec.SharedPerBlock {
		return KernelStats{}, fmt.Errorf("cuda: launch %q: shared %d exceeds per-block limit %d",
			cfg.Name, cfg.Shared, d.Spec.SharedPerBlock)
	}

	stats := KernelStats{
		Name:      cfg.Name,
		Grid:      cfg.Grid,
		Block:     cfg.Block,
		Shared:    cfg.Shared,
		Occupancy: d.Spec.OccupancyFor(cfg.Block, cfg.Shared),
	}
	if cfg.PerBlock {
		stats.PerBlock = make([]BlockStats, cfg.Grid)
	}

	workers := d.workerCount()
	if workers > cfg.Grid {
		workers = cfg.Grid
	}
	// Each worker accumulates locally; merge afterwards (sums commute).
	locals := make([]KernelStats, workers)
	par.Claim(cfg.Grid, workers, func(w, blk int) {
		ctx := BlockCtx{
			BlockIdx: blk,
			GridDim:  cfg.Grid,
			BlockDim: cfg.Block,
			spec:     &d.Spec,
		}
		kernel(&ctx)
		b := &ctx.acc
		// A block's own totals are its per-block maxima.
		b.MaxBlockWarpInstrs, b.MaxBlockIters, b.MaxBlockAccesses = b.WarpInstrs, b.Iterations, b.AccessEvents
		locals[w].merge(b)
		if stats.PerBlock != nil {
			stats.PerBlock[blk] = BlockStats{
				WarpInstrs: b.WarpInstrs, LaneOps: b.LaneOps, Iterations: b.Iterations,
				Barriers: b.Barriers, Reductions: b.Reductions, AccessEvents: b.AccessEvents,
			}
		}
	})

	for i := range locals {
		stats.merge(&locals[i])
	}

	d.applyCacheModel(&stats)
	return stats, nil
}

// L2StreamingFactor discounts the modeled DRAM traffic of L2 misses on
// reuse-class data: the rolling anti-diagonal buffers are streamed
// sequentially with a one-iteration reuse distance, so even when the
// resident working set exceeds L2 capacity roughly half of the would-be
// miss traffic is covered by line-granularity locality and prefetch.
// Calibrated against the paper's sustained X=5000 throughput (Table III:
// 181 GCUPS, which a pure residency model would cap near 150).
const L2StreamingFactor = 0.5

// applyCacheModel converts raw traffic into DRAM traffic. Streaming traffic
// always reaches DRAM. Reuse traffic hits in L2 with probability equal to
// the fraction of the device-resident working set that fits:
//
//	workingSet = residentBlocks x perBlockReuseFootprint
//	hit        = min(1, L2 / workingSet)
//
// with misses discounted by L2StreamingFactor. This captures the effect
// LOGAN's thread-count heuristic produces on real silicon: fewer resident
// blocks at large X keep the rolling anti-diagonal buffers cache-resident
// even as the band grows.
func (d *Device) applyCacheModel(s *KernelStats) { ApplyCacheModel(d.Spec, s) }

// ApplyCacheModel recomputes the DRAM traffic of a launch accounting from
// its raw traffic classes. Exposed so that the experiment harness can
// re-evaluate cache behaviour after scaling a sample launch to the full
// workload's grid size (L2 residency depends on the resident block count,
// which scaling changes).
func ApplyCacheModel(spec DeviceSpec, s *KernelStats) {
	s.DRAMReadBytes = s.StreamReadBytes
	s.DRAMWriteBytes = s.StreamWriteBytes
	reuse := s.ReuseReadBytes + s.ReuseWriteBytes
	if reuse == 0 {
		s.L2HitFraction = 0
		return
	}
	resident := s.Occupancy.BlocksPerSM * spec.SMs
	if resident > s.Grid {
		resident = s.Grid
	}
	if resident < 1 {
		resident = 1
	}
	workingSet := int64(resident) * s.ReuseFootprint
	hit := 1.0
	if workingSet > spec.L2Bytes {
		hit = float64(spec.L2Bytes) / float64(workingSet)
	}
	s.L2HitFraction = hit
	missRead := float64(s.ReuseReadBytes) * (1 - hit) * L2StreamingFactor
	missWrite := float64(s.ReuseWriteBytes) * (1 - hit) * L2StreamingFactor
	s.DRAMReadBytes += int64(missRead)
	s.DRAMWriteBytes += int64(missWrite)
}
