package perfmodel

import (
	"testing"
	"time"

	"logan/internal/cuda"
)

func v100() cuda.DeviceSpec { return cuda.TeslaV100() }

// fullGridStats fabricates a launch that saturates the device: many blocks,
// full warps, no memory pressure.
func fullGridStats(grid, block int, warpInstrs int64) cuda.KernelStats {
	s := cuda.KernelStats{
		Grid:               grid,
		Block:              block,
		WarpInstrs:         warpInstrs,
		MaxBlockWarpInstrs: warpInstrs / int64(grid),
		MaxBlockIters:      10,
		Occupancy:          cuda.TeslaV100().OccupancyFor(block, 0),
	}
	return s
}

func TestKernelTimeThroughputRegime(t *testing.T) {
	tm := NewV100Timer()
	// 1e9 warp instructions on a saturated grid should take about
	// 1e9 / 220.8e9 s = ~4.5 ms: the INT32 ceiling.
	s := fullGridStats(100000, 128, 1e9)
	got := tm.KernelTime(v100(), s)
	wantSec := 1e9 / 220.8e9
	want := time.Duration(wantSec * float64(time.Second))
	lo, hi := want*9/10, want*3/2
	if got < lo || got > hi {
		t.Errorf("throughput kernel time = %v, want within [%v, %v]", got, lo, hi)
	}
}

func TestKernelTimeScalesWithWork(t *testing.T) {
	tm := NewV100Timer()
	t1 := tm.KernelTime(v100(), fullGridStats(100000, 128, 1e9))
	t2 := tm.KernelTime(v100(), fullGridStats(100000, 128, 2e9))
	ratio := float64(t2) / float64(t1)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("doubling work changed time by %.2fx, want ~2x", ratio)
	}
}

func TestKernelTimeMemoryBound(t *testing.T) {
	tm := NewV100Timer()
	s := fullGridStats(100000, 128, 1000) // trivial compute
	s.DRAMReadBytes = 9e9                 // 9 GB at 900 GB/s = 10 ms
	got := tm.KernelTime(v100(), s)
	if got < 9*time.Millisecond || got > 12*time.Millisecond {
		t.Errorf("memory-bound kernel time = %v, want ~10ms", got)
	}
}

func TestKernelTimeCriticalPathSingleBlock(t *testing.T) {
	tm := NewV100Timer()
	// One block cannot use more than one SM: same work on 1 block must be
	// far slower than spread over 1000 blocks.
	one := cuda.KernelStats{
		Grid: 1, Block: 128, WarpInstrs: 1e8,
		MaxBlockWarpInstrs: 1e8, MaxBlockIters: 1e4,
		Occupancy: v100().OccupancyFor(128, 0),
	}
	many := fullGridStats(1000, 128, 1e8)
	tOne := tm.KernelTime(v100(), one)
	tMany := tm.KernelTime(v100(), many)
	if tOne < 50*tMany {
		t.Errorf("single block %v vs grid %v: expected >=50x critical-path penalty", tOne, tMany)
	}
}

func TestKernelTimeLatencyExposure(t *testing.T) {
	tm := NewV100Timer()
	// A single-thread block with per-cell DRAM accesses pays exposed
	// latency (Table I "None" row mechanism).
	serial := cuda.KernelStats{
		Grid: 1, Block: 1, WarpInstrs: 1e6,
		MaxBlockWarpInstrs: 1e6, MaxBlockIters: 1e4, MaxBlockAccesses: 3e6,
		AccessEvents: 3e6,
		Occupancy:    v100().OccupancyFor(1, 0),
	}
	noMem := serial
	noMem.MaxBlockAccesses = 0
	withLat := tm.KernelTime(v100(), serial)
	without := tm.KernelTime(v100(), noMem)
	if withLat < 2*without {
		t.Errorf("latency exposure %v vs %v: expected >=2x from unhidden DRAM latency", withLat, without)
	}
}

func TestCopyTime(t *testing.T) {
	tm := NewV100Timer()
	spec := v100()
	got := tm.CopyTime(spec, 32e9) // 32 GB at 32 GB/s = ~1s
	if got < 990*time.Millisecond || got > 1100*time.Millisecond {
		t.Errorf("copy time = %v, want ~1s", got)
	}
	if zero := tm.CopyTime(spec, 0); zero > time.Millisecond {
		t.Errorf("zero-byte copy = %v, want only link latency", zero)
	}
}

func TestGCUPS(t *testing.T) {
	if got := GCUPS(2e9, time.Second); got != 2.0 {
		t.Errorf("GCUPS = %v, want 2", got)
	}
	if got := GCUPS(100, 0); got != 0 {
		t.Errorf("GCUPS at zero duration = %v, want 0", got)
	}
}

func TestHostModel(t *testing.T) {
	h := DefaultHostModel()
	if got := h.PrepTime(100000); got < time.Second || got > 3*time.Second {
		t.Errorf("prep time for 100K pairs = %v, want ~2s (Table II X=10 row)", got)
	}
	if got := h.SetupTime(6); got != 150*time.Millisecond {
		t.Errorf("setup time 6 GPUs = %v, want 150ms", got)
	}
	if h.CollectTime(1000) != time.Millisecond {
		t.Error("collect time mismatch")
	}
}

func TestGPUTimerImplementsCudaTimer(t *testing.T) {
	var _ cuda.Timer = NewV100Timer()
}
