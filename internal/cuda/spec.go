// Package cuda is a SIMT execution-model simulator: the substrate LOGAN-Go
// runs its "GPU" kernels on, standing in for CUDA on an NVIDIA Tesla V100.
//
// Kernels are ordinary Go functions executed once per block on a host worker
// pool. They take their results from the host implementation (LOGAN's
// blocks run the internal/xdrop wavefront, so device scores are the CPU
// engine's bit for bit) while the simulator counts the work a V100 would
// do: warp instructions at 32-lane granularity, lane occupancy per
// synchronized step, shared-memory footprint, and DRAM/L2 traffic split
// into streaming and reuse classes. A hardware
// time model (internal/perfmodel) converts those counts into modeled kernel
// time using the same bound-and-bottleneck reasoning as the paper's Roofline
// section; the counts themselves are exact, not sampled.
//
// The package intentionally mirrors the CUDA host API surface LOGAN uses:
// device discovery, memory allocation (a capacity ledger), asynchronous
// streams, and kernel launch with a grid/block geometry.
package cuda

import "fmt"

// DeviceSpec describes the simulated hardware. Defaults model the NVIDIA
// Tesla V100 (Volta, 16 GB HBM2) used throughout the paper's evaluation.
type DeviceSpec struct {
	Name string

	SMs             int     // streaming multiprocessors
	SchedulersPerSM int     // warp schedulers (processing blocks) per SM
	WarpSize        int     // threads per warp
	INT32PerSched   int     // INT32 cores per scheduler
	ClockGHz        float64 // boost clock, for the theoretical instruction rate
	BaseClockGHz    float64 // base clock, used by the paper's INT32 ceiling

	MaxThreadsPerBlock int
	MaxThreadsPerSM    int
	MaxBlocksPerSM     int
	SharedPerBlock     int // bytes of shared memory a block may reserve
	SharedPerSM        int // bytes of shared memory per SM
	RegistersPerSM     int // 32-bit registers per SM
	RegsPerThread      int // compiler register budget estimate per thread

	HBMBytes     int64   // device memory capacity
	HBMBandwidth float64 // bytes/second
	L2Bytes      int64   // L2 cache capacity
	LinkBW       float64 // host link bandwidth, bytes/second (NVLink2/PCIe)
	LinkLatency  float64 // host link latency per transfer, seconds
}

// TeslaV100 returns the specification of a 16 GB SXM2 Tesla V100, with the
// figures the paper quotes in §IV and §VII: 80 SMs x 4 warp schedulers,
// 16 INT32 cores per scheduler, 96 KB shared memory per SM with a 64 KB
// per-block limit, and 900 GB/s of HBM2 bandwidth.
func TeslaV100() DeviceSpec {
	return DeviceSpec{
		Name:            "Tesla V100-SXM2-16GB",
		SMs:             80,
		SchedulersPerSM: 4,
		WarpSize:        32,
		INT32PerSched:   16,
		ClockGHz:        1.53,
		BaseClockGHz:    1.38,

		MaxThreadsPerBlock: 1024,
		MaxThreadsPerSM:    2048,
		MaxBlocksPerSM:     32,
		SharedPerBlock:     64 << 10,
		SharedPerSM:        96 << 10,
		RegistersPerSM:     65536,
		RegsPerThread:      32,

		HBMBytes:     16 << 30,
		HBMBandwidth: 900e9,
		L2Bytes:      6 << 20,
		LinkBW:       32e9, // NVLink2 per-direction sustained on POWER9 hosts
		LinkLatency:  10e-6,
	}
}

// TheoreticalWarpGIPS is the device-wide peak warp-instruction issue rate in
// billions per second: SMs x schedulers x 1 instruction/cycle x boost clock.
// For the V100 this is the paper's 80 x 4 x 1.53 = 489.6 GIPS.
func (s DeviceSpec) TheoreticalWarpGIPS() float64 {
	return float64(s.SMs*s.SchedulersPerSM) * s.ClockGHz
}

// INT32WarpGIPS is the attainable INT32 warp-instruction rate: with 16 INT32
// cores per scheduler only half a warp issues per cycle, so the ceiling is
// half the theoretical rate. The paper evaluates it at the base clock,
// giving 220.8 GIPS for the V100 (§VII).
func (s DeviceSpec) INT32WarpGIPS() float64 {
	frac := float64(s.INT32PerSched) / float64(s.WarpSize)
	return float64(s.SMs*s.SchedulersPerSM) * s.BaseClockGHz * frac
}

// INT32Lanes is the total number of INT32 cores on the device (the paper's
// MAXR in Eq. 1).
func (s DeviceSpec) INT32Lanes() int {
	return s.SMs * s.SchedulersPerSM * s.INT32PerSched
}

// Validate reports an error for non-physical specifications.
func (s DeviceSpec) Validate() error {
	switch {
	case s.SMs <= 0 || s.SchedulersPerSM <= 0 || s.WarpSize <= 0:
		return fmt.Errorf("cuda: spec %q: SM geometry must be positive", s.Name)
	case s.MaxThreadsPerBlock <= 0 || s.MaxThreadsPerSM < s.MaxThreadsPerBlock:
		return fmt.Errorf("cuda: spec %q: inconsistent thread limits", s.Name)
	case s.HBMBytes <= 0 || s.HBMBandwidth <= 0:
		return fmt.Errorf("cuda: spec %q: memory system must be positive", s.Name)
	case s.ClockGHz <= 0 || s.BaseClockGHz <= 0:
		return fmt.Errorf("cuda: spec %q: clocks must be positive", s.Name)
	}
	return nil
}
