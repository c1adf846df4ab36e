package core

import (
	"sync"

	"logan/internal/cuda"
	"logan/internal/xdrop"
)

// extKernelOpts carries the design-ablation switches into the block
// accounting.
type extKernelOpts struct {
	sharedAntidiags bool // anti-diagonals in shared memory, not HBM
	uncoalescedSeq  bool // sequence reads against the memory direction
}

// laneScratch is the host state a launch worker reuses from block to
// block: the wavefront's workspace and the band trace it records into.
type laneScratch struct {
	ws    *xdrop.Workspace
	trace []int32
}

var lanePool = sync.Pool{New: func() any { return &laneScratch{ws: xdrop.NewWorkspace()} }}

// extendOnBlock runs one X-drop extension as one simulated GPU block. The
// scores and the width of every anti-diagonal come from the xdrop
// wavefront (Workspace.ExtendTrace), so the device computes exactly what
// the CPU engine computes; the block then charges the work the paper's
// kernel does for that band (see replay).
//
// q and t are the pair's prefixes for a left extension (rev), which the
// wavefront stages reversed like every extension it runs (paper Figs.
// 5-6), or its suffixes for a right one. The reversal is why every
// sequence read is coalesced unless the ablation switch says otherwise.
func extendOnBlock(b *cuda.BlockCtx, q, t []byte, rev bool, sc xdrop.Scoring, x int32, opts extKernelOpts) xdrop.Result {
	ls := lanePool.Get().(*laneScratch)
	r, trace := ls.ws.ExtendTrace(q, t, rev, sc, x, ls.trace[:0])
	ls.trace = trace
	if r.AntiDiags > 0 { // an empty extension returns before touching memory
		replay(b, len(q)+len(t), trace, r.MaxBand, opts)
	}
	lanePool.Put(ls)
	return r
}

// replay charges one extension's work to its block in the order the
// paper's kernel issues it: the compulsory sequence stream (each block
// reads its pair once), then per anti-diagonal of the trace the segment
// sweeps of blockDim lanes (Fig. 3) with their traffic, the Alg. 2
// reduction and the barrier, and finally the reuse footprint of the
// widest band. Traffic is charged per segment: each segment issues one
// dependent round of global accesses (anti-diagonal reads, sequence
// window, result write), which is what exposes memory latency when
// occupancy cannot hide it — the single-thread row of Table I.
func replay(b *cuda.BlockCtx, seqBytes int, widths []int32, maxBand int, opts extKernelOpts) {
	b.GlobalRead(cuda.TrafficStream, int64(seqBytes), true)
	threads := b.Threads()
	for _, w := range widths {
		width := int(w)
		for off := 0; off < width; off += threads {
			active := min(threads, width-off)
			b.Step(active, CellOps)
			if !opts.sharedAntidiags {
				b.GlobalRead(cuda.TrafficReuse, int64(8*active), true)  // a2 twice, a3 once (amortized)
				b.GlobalWrite(cuda.TrafficReuse, int64(4*active), true) // a1
			}
			if opts.uncoalescedSeq {
				// Backward reads fetch one 32B sector per lane; sector
				// fetches have no spatial reuse for L2 to exploit, so
				// they count as streaming traffic (the Fig. 6 penalty).
				b.GlobalRead(cuda.TrafficStream, int64(2*active), false)
			} else {
				b.GlobalRead(cuda.TrafficReuse, int64(2*active), true) // sequence windows
			}
		}
		b.ReduceMax32(width)
		b.Sync()
	}

	footprint := 2 * int64(maxBand) // sequence windows
	if !opts.sharedAntidiags {
		footprint += 3 * 4 * int64(maxBand) // the three anti-diagonals
	}
	b.DeclareReuseFootprint(footprint)
}
