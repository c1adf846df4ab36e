package perfmodel

import "runtime"

// LocalCellRatePerWorker is a conservative prior for the DP-cell
// throughput of one worker of this repository's own Go X-drop pool
// (internal/xdrop.Pool) on a contemporary core. It seeds the hybrid
// scheduler's CPU throughput estimate before the first batch has been
// observed; the estimate is then corrected online from measured batch
// rates, so this constant only shapes the very first split.
const LocalCellRatePerWorker = 5e7

// LocalCPUThroughput returns the seed throughput estimate (cells/second)
// for a local Go worker pool of the given width.
func LocalCPUThroughput(workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	return LocalCellRatePerWorker * float64(workers)
}

// LocalSimGPUThroughput returns the seed wall-clock throughput estimate
// for one simulated device executing on this host. The scheduler compares
// workers in one currency — host wall time — and a simulated GPU's blocks
// run the CPU pool's own X-drop wavefront on a GOMAXPROCS-wide host pool,
// then replay its band trace through the counting simulator; staging,
// replay and the serial launches leave the device at about half the CPU
// pool's rate (BenchmarkBackends2k, x=100, 2-core host: gpu1 ~119 ms
// against cpu ~66 ms per 2k-pair batch). Deliberately in the same unit
// (and order of magnitude) as LocalCPUThroughput, unlike the modeled
// device's cell rate: seeding the scheduler with modeled device seconds
// would starve the CPU pool for the dozens of batches the EWMA needs to
// unwind a ~1000x unit mismatch.
func LocalSimGPUThroughput() float64 {
	return LocalCPUThroughput(runtime.GOMAXPROCS(0)) / 2
}
