// Package perfmodel converts the work counted by the simulated substrates
// into modeled wall time on the paper's hardware: kernel time on an NVIDIA
// Tesla V100 from internal/cuda launch statistics, and batch-alignment time
// on the POWER9 and Xeon Gold ("Skylake") host platforms from DP-cell
// counts. The GPU model is the same bound-and-bottleneck reasoning the
// paper's Roofline section applies (compute ceiling vs HBM bandwidth), with
// a latency term that matters only at low occupancy — exactly the regime
// Table I's single-alignment rows probe.
//
// All calibration constants are declared here with their provenance. They
// scale the axes; every shape in the reproduced tables (who wins, where the
// crossovers sit) comes out of counted work, not out of these constants.
package perfmodel

import (
	"math"
	"time"

	"logan/internal/cuda"
)

// GPUTimer models kernel and transfer durations for a cuda.DeviceSpec. It
// implements cuda.Timer.
type GPUTimer struct {
	// DepLatency is the average issue-to-issue latency in cycles between
	// dependent INT32 instructions of one warp (V100 ALU ~4 cycles plus
	// scheduling).
	DepLatency float64
	// ILP is the average number of independent instructions a thread
	// exposes between dependences (anti-diagonal cells are independent,
	// so the X-drop inner loop has some).
	ILP float64
	// WarpsToHide is the resident-warp count per SM at which memory and
	// pipeline latency is considered fully hidden.
	WarpsToHide float64
	// MemLatency is the DRAM access latency in cycles exposed when
	// occupancy is too low to hide it (V100 HBM2 ~400-500 cycles).
	MemLatency float64
	// SyncCycles is the per-iteration critical-path cost of
	// __syncthreads plus the block-level bookkeeping between
	// anti-diagonals (barrier, band trim, shared-memory max exchange).
	SyncCycles float64
	// LaunchOverhead is the fixed host-side cost of one kernel launch.
	LaunchOverhead time.Duration
}

// NewV100Timer returns the timer tuned for the Tesla V100. DepLatency, ILP
// and MemLatency are architecture figures. SyncCycles was calibrated once
// against Table I's intra-sequence row, the paper's 9.3x single-pair
// speed-up of one 128-thread block over one thread, and has not been
// refit since: with today's kernel accounting it yields 12.1x (61.9 ms
// against 748.6 ms for one pair, the Table I rows of EXPERIMENTS.md and
// testdata/logan_bench_quick.csv), which the reproduction reports as a
// prediction.
func NewV100Timer() *GPUTimer {
	return &GPUTimer{
		DepLatency:     4,
		ILP:            2,
		WarpsToHide:    8,
		MemLatency:     450,
		SyncCycles:     110,
		LaunchOverhead: 6 * time.Microsecond,
	}
}

// KernelTime models the duration of one kernel launch.
//
// Throughput term: total INT32 warp instructions divided by the device-wide
// issue rate, where each SM issues at most schedulers*INT32/warpSize
// instructions per cycle and needs WarpsToHide resident warps to get there.
//
// Critical-path term: the heaviest block's instructions at its block-local
// issue rate, plus one SyncCycles charge per synchronized iteration, plus
// exposed memory latency when residency cannot hide it.
//
// Memory term: modeled DRAM traffic at HBM bandwidth.
//
// The kernel time is max(throughput, critical path, memory) + launch cost:
// whichever bound binds. For full grids (inter-sequence parallelism) the
// throughput or memory term wins; for Table I's single-block launches the
// critical path dominates.
func (t *GPUTimer) KernelTime(spec cuda.DeviceSpec, s cuda.KernelStats) time.Duration {
	if s.Grid <= 0 {
		return 0
	}
	clockHz := spec.BaseClockGHz * 1e9
	warpsPerBlock := float64((s.Block + spec.WarpSize - 1) / spec.WarpSize)
	maxIssuePerSM := float64(spec.SchedulersPerSM) * float64(spec.INT32PerSched) / float64(spec.WarpSize)
	perWarpIssue := t.ILP / t.DepLatency

	// Device-wide throughput.
	smsUsed := float64(min(s.Grid, spec.SMs))
	blocksPerSM := float64(s.Occupancy.BlocksPerSM)
	if need := float64(s.Grid) / float64(spec.SMs); need < blocksPerSM {
		blocksPerSM = need
	}
	if blocksPerSM < 1 {
		blocksPerSM = 1
	}
	residentWarps := blocksPerSM * warpsPerBlock
	issuePerSM := residentWarps * perWarpIssue
	if issuePerSM > maxIssuePerSM {
		issuePerSM = maxIssuePerSM
	}
	// Utilization of the INT32 core rounds, the same term as the paper's
	// Eq. (1) adapted ceiling (see internal/roofline): active lanes that
	// are not a multiple of the device's INT32 width leave partially
	// empty rounds.
	if u := coreRoundUtil(spec, s); u > 0 && u < 1 {
		issuePerSM *= u
	}
	throughputCycles := float64(s.WarpInstrs) / (smsUsed * issuePerSM)

	// Per-barrier overheads (__syncthreads plus exposed memory latency
	// between anti-diagonals) serialize within a block but amortize over
	// the blocks resident on each SM — the quantitative form of the
	// paper's occupancy argument (§IV-B): a kernel shape that caps
	// residency pays its barrier latency almost bare.
	activeWarps := warpsPerBlock
	if m := s.Iter.MeanActiveLanes(); m > 0 {
		if aw := math.Ceil(m / float64(spec.WarpSize)); aw < activeWarps {
			activeWarps = aw
		}
	}
	residentActive := blocksPerSM * activeWarps
	barrierHide := 1 - residentActive/t.WarpsToHide
	if barrierHide < 0 {
		barrierHide = 0
	}
	if s.Barriers > 0 {
		accessesPerBarrier := float64(s.AccessEvents) / float64(s.Barriers)
		perBarrier := t.SyncCycles + barrierHide*t.MemLatency*accessesPerBarrier
		throughputCycles += perBarrier * float64(s.Barriers) / (smsUsed * blocksPerSM)
	}

	// Per-block critical path.
	blockIssue := warpsPerBlock * perWarpIssue
	if blockIssue > maxIssuePerSM {
		blockIssue = maxIssuePerSM
	}
	criticalCycles := float64(s.MaxBlockWarpInstrs)/blockIssue +
		float64(s.MaxBlockIters)*t.SyncCycles
	// Exposed memory latency: scales down as resident warps approach the
	// hiding threshold.
	hide := 1 - residentWarps/t.WarpsToHide
	if hide > 0 {
		criticalCycles += float64(s.MaxBlockAccesses) * t.MemLatency * hide
	}

	computeCycles := throughputCycles
	if criticalCycles > computeCycles {
		computeCycles = criticalCycles
	}
	computeSec := computeCycles / clockHz
	memSec := float64(s.DRAMBytes()) / spec.HBMBandwidth
	sec := computeSec
	if memSec > sec {
		sec = memSec
	}
	return time.Duration(sec*1e9)*time.Nanosecond + t.LaunchOverhead
}

// coreRoundUtil is Eq. (1)'s core-round utilization
// (cuda.KernelStats.CoreRounds, the term of roofline.AdaptedCeiling) past
// saturation, and 1 below it: on an unsaturated device the throughput
// term's SM/warp scaling and the critical-path term already model
// underutilization, so the round-rounding penalty applies only once the
// active lanes fill MAXR.
func coreRoundUtil(spec cuda.DeviceSpec, s cuda.KernelStats) float64 {
	maxr := spec.INT32Lanes()
	x, u := s.CoreRounds(spec.SMs, maxr)
	if x < float64(maxr) {
		return 1
	}
	return u
}

// CopyTime models a host<->device transfer at link bandwidth plus latency.
func (t *GPUTimer) CopyTime(spec cuda.DeviceSpec, bytes int64) time.Duration {
	sec := spec.LinkLatency + float64(bytes)/spec.LinkBW
	return time.Duration(sec * 1e9)
}

// GCUPS returns billions of DP-cell updates per second for the given cell
// count and duration, the paper's headline throughput metric.
func GCUPS(cells int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(cells) / d.Seconds() / 1e9
}
