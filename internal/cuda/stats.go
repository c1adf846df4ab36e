package cuda

// TrafficClass distinguishes global-memory accesses by their reuse pattern,
// which decides whether the analytic L2 model may convert them into cache
// hits.
type TrafficClass int

const (
	// TrafficStream marks compulsory streaming traffic (first touch of
	// sequence data, result write-back). It always reaches DRAM.
	TrafficStream TrafficClass = iota
	// TrafficReuse marks iterative re-reads of small per-block working sets
	// (LOGAN's three rolling anti-diagonals). The fraction that fits in L2
	// never reaches DRAM.
	TrafficReuse
)

// UncoalescedFactor is the traffic amplification applied to uncoalesced
// global accesses: a warp touching 32 scattered 4-byte words pulls a 32-byte
// sector per lane instead of four 32-byte sectors, an 8x penalty. LOGAN's
// query-reversal optimization (paper Fig. 6) exists precisely to avoid this.
const UncoalescedFactor = 8

// BlockStats is the per-block work summary the simulator collects while a
// kernel block executes.
type BlockStats struct {
	WarpInstrs   int64 // INT32 warp instructions issued (32-lane granularity)
	LaneOps      int64 // useful lane operations (active lanes only)
	Iterations   int64 // synchronized steps (segments + barriers)
	Barriers     int64 // __syncthreads barriers (one per anti-diagonal)
	Reductions   int64 // parallel max-reductions performed
	AccessEvents int64 // dependent global-memory access events (latency exposure)
}

// IterAgg aggregates per-iteration utilization terms for the paper's
// adapted-ceiling formula (Eq. 1). For iteration i with ops-per-lane Nop_i
// and active lane count a_i it accumulates Nop_i and Nop_i * fill_i where
// fill_i = a_i / (ceil(a_i/32)*32) is the warp fill fraction. The Roofline
// package combines these with grid shape and core counts.
type IterAgg struct {
	SumNop     float64 // sum of ops-per-lane over iterations
	SumNopFill float64 // same, weighted by warp fill
	SumNopAct  float64 // sum of Nop_i * active lanes (for Eq. 1's B*Nop term)
	Count      int64   // iterations observed
}

func (a *IterAgg) add(other IterAgg) {
	a.SumNop += other.SumNop
	a.SumNopFill += other.SumNopFill
	a.SumNopAct += other.SumNopAct
	a.Count += other.Count
}

// MeanActiveLanes returns the op-weighted average number of active lanes
// per iteration across the grid.
func (a IterAgg) MeanActiveLanes() float64 {
	if a.SumNop == 0 {
		return 0
	}
	return a.SumNopAct / a.SumNop
}

// KernelStats is the complete accounting of one kernel launch.
type KernelStats struct {
	Name   string
	Grid   int // blocks launched
	Block  int // threads per block
	Shared int // shared bytes reserved per block

	WarpInstrs         int64 // total INT32 warp instructions
	LaneOps            int64 // total useful lane ops
	Iterations         int64 // total synchronized steps across blocks
	Barriers           int64 // total __syncthreads barriers
	Reductions         int64 // total parallel reductions
	AccessEvents       int64 // total dependent global access events
	MaxBlockWarpInstrs int64 // critical-path proxy: heaviest block
	MaxBlockIters      int64 // critical-path proxy: most iterations in a block
	MaxBlockAccesses   int64 // critical-path proxy: most access events in a block

	// Global memory traffic in bytes, before cache modeling.
	StreamReadBytes  int64
	StreamWriteBytes int64
	ReuseReadBytes   int64
	ReuseWriteBytes  int64
	// ReuseFootprint is the per-block resident working set (bytes) behind
	// the reuse-class traffic, declared by the kernel.
	ReuseFootprint int64

	// DRAM traffic after the L2 model (filled by FinishLaunch).
	DRAMReadBytes  int64
	DRAMWriteBytes int64
	L2HitFraction  float64

	Iter IterAgg // adapted-ceiling aggregates

	Occupancy Occupancy // residency of this launch's block shape

	PerBlock []BlockStats // optional per-block summaries (see LaunchConfig)
}

// DRAMBytes returns total modeled DRAM traffic.
func (k KernelStats) DRAMBytes() int64 { return k.DRAMReadBytes + k.DRAMWriteBytes }

// OperationalIntensity returns warp instructions per byte of DRAM traffic,
// the x-axis of the paper's instruction Roofline (Fig. 13).
func (k KernelStats) OperationalIntensity() float64 {
	b := k.DRAMBytes()
	if b == 0 {
		return 0
	}
	return float64(k.WarpInstrs) / float64(b)
}

// merge folds o into k: the extensive counters, the raw traffic and Iter
// add, and the per-block maxima and the reuse footprint keep the larger
// value. It is the one list of the fields a launch gathers from its
// blocks: Launch folds each block into its worker's tally and each tally
// into the launch with it, and Accumulate folds whole launches.
func (k *KernelStats) merge(o *KernelStats) {
	k.WarpInstrs += o.WarpInstrs
	k.LaneOps += o.LaneOps
	k.Iterations += o.Iterations
	k.Barriers += o.Barriers
	k.Reductions += o.Reductions
	k.AccessEvents += o.AccessEvents
	k.MaxBlockWarpInstrs = max(k.MaxBlockWarpInstrs, o.MaxBlockWarpInstrs)
	k.MaxBlockIters = max(k.MaxBlockIters, o.MaxBlockIters)
	k.MaxBlockAccesses = max(k.MaxBlockAccesses, o.MaxBlockAccesses)
	k.StreamReadBytes += o.StreamReadBytes
	k.StreamWriteBytes += o.StreamWriteBytes
	k.ReuseReadBytes += o.ReuseReadBytes
	k.ReuseWriteBytes += o.ReuseWriteBytes
	k.ReuseFootprint = max(k.ReuseFootprint, o.ReuseFootprint)
	k.Iter.add(o.Iter)
}

// Accumulate folds another launch's stats into k (used when one logical
// operation issues several launches, e.g. the two extension streams).
func (k *KernelStats) Accumulate(o KernelStats) {
	k.merge(&o)
	k.Grid += o.Grid
	k.DRAMReadBytes += o.DRAMReadBytes
	k.DRAMWriteBytes += o.DRAMWriteBytes
	if o.Block > k.Block {
		k.Block = o.Block
		k.Occupancy = o.Occupancy
	}
	if k.WarpInstrs > 0 {
		raw := k.ReuseReadBytes + k.ReuseWriteBytes
		if raw > 0 {
			dram := k.DRAMReadBytes + k.DRAMWriteBytes - k.StreamReadBytes - k.StreamWriteBytes
			k.L2HitFraction = 1 - float64(dram)/float64(raw)
		}
	}
}
