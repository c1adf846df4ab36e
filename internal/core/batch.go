package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"logan/internal/cuda"
	"logan/internal/seq"
	"logan/internal/xdrop"
)

// BatchResult is the outcome of aligning a batch on one simulated GPU.
type BatchResult struct {
	// Results are positionally aligned with the input pairs and carry the
	// same structure the CPU baseline produces — scores are bit-identical
	// to xdrop.ExtendBatch on the same input.
	Results []xdrop.SeedResult
	// Stats merges the accounting of every kernel launch in the batch.
	Stats cuda.KernelStats
	// Cells is the total DP cells updated on the device.
	Cells int64
	// DeviceTime is the modeled GPU-side time: transfers and the two
	// extension-stream kernels composed on the device timeline.
	DeviceTime time.Duration
	// TransferBytes counts host<->device traffic.
	TransferBytes int64
	// Launches is the number of kernel launches (2 per memory chunk).
	Launches int
	// Chunks is how many sub-batches the HBM capacity forced.
	Chunks int
}

// extension field layout in the device result buffer.
const extFields = 8

// AlignBatch aligns all pairs on the device with the LOGAN kernel:
// seed-split into left/right extension tasks, sequences staged into device
// memory, the two extension grids launched on separate streams (paper
// §IV-B), and results collected back. If the batch does not fit device
// memory it is processed in chunks, as LOGAN's host code does for the
// C. elegans-scale workloads.
func AlignBatch(dev *cuda.Device, pairs []seq.Pair, cfg Config) (BatchResult, error) {
	return AlignBatchContext(context.Background(), dev, pairs, cfg)
}

// AlignBatchContext is AlignBatch under a context: a canceled ctx stops
// the batch at the next memory-chunk boundary (the kernel itself is not
// interruptible, matching real device launches) and returns the context's
// error.
func AlignBatchContext(ctx context.Context, dev *cuda.Device, pairs []seq.Pair, cfg Config) (BatchResult, error) {
	out := BatchResult{}
	if err := cfg.Scoring.Validate(); err != nil {
		return out, err
	}
	if cfg.X < 0 {
		return out, fmt.Errorf("core: negative X %d", cfg.X)
	}
	if len(pairs) == 0 {
		return out, nil
	}
	for i := range pairs {
		p := &pairs[i]
		// SeedQPos > len-SeedLen rather than SeedQPos+SeedLen > len: the
		// sum can overflow for adversarial positions, which would pass the
		// check and panic in the kernel.
		if p.SeedQPos < 0 || p.SeedTPos < 0 || p.SeedLen <= 0 ||
			p.SeedQPos > len(p.Query)-p.SeedLen || p.SeedTPos > len(p.Target)-p.SeedLen {
			return out, fmt.Errorf("core: pair %d: seed (%d,%d,len %d) outside sequences (%d,%d)",
				i, p.SeedQPos, p.SeedTPos, p.SeedLen, len(p.Query), len(p.Target))
		}
	}

	threads := cfg.ThreadsPerBlock
	if threads <= 0 {
		threads = ThreadsForX(cfg.X)
	}

	out.Results = make([]xdrop.SeedResult, len(pairs))
	dev.ResetTimeline()
	left := dev.NewStream()
	right := dev.NewStream()

	// Per-pair device footprint: staged sequences + 3 anti-diagonal
	// buffers per extension + the result records.
	maxExtLen := 0
	var maxPairBytes int64
	for i := range pairs {
		p := &pairs[i]
		for _, l := range []int{p.SeedQPos, p.SeedTPos, len(p.Query) - p.SeedQPos - p.SeedLen, len(p.Target) - p.SeedTPos - p.SeedLen} {
			if l > maxExtLen {
				maxExtLen = l
			}
		}
		if b := int64(len(p.Query) + len(p.Target)); b > maxPairBytes {
			maxPairBytes = b
		}
	}
	bandAlloc := BandAlloc(cfg.X, maxExtLen, cfg.BandAllocSlack)
	// Conservative per-pair footprint (worst pair), so a chunk sized from
	// it always fits the remaining capacity.
	perPair := maxPairBytes + // staged bases
		2*3*int64(bandAlloc)*4 + // anti-diagonals, both extensions
		2*extFields*8 // result records
	free := dev.Spec.HBMBytes - dev.Allocated()
	chunkPairs := int(free * 9 / 10 / max64(perPair, 1))
	if chunkPairs < 1 {
		return out, fmt.Errorf("core: device memory cannot hold a single pair (footprint %d bytes)", perPair)
	}

	for start := 0; start < len(pairs); start += chunkPairs {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return out, err
			}
		}
		end := min(start+chunkPairs, len(pairs))
		if err := alignChunk(dev, left, right, pairs[start:end], out.Results[start:end], cfg, threads, bandAlloc, &out); err != nil {
			return out, err
		}
		out.Chunks++
	}
	out.DeviceTime = cuda.SyncAll(left, right)
	for i := range out.Results {
		out.Cells += out.Results[i].Cells()
	}
	return out, nil
}

// hostScratch is the reusable host-side staging of one extension side:
// the sequence arena, its offset tables and the result records. Pooled so
// that repeated batches on a long-lived device stage without allocating.
type hostScratch struct {
	arena                  []byte
	qOff, qLen, tOff, tLen []int32
	hostRes                []int64
	exts                   []extResult
}

var scratchPool = sync.Pool{New: func() any { return new(hostScratch) }}

// growInt32 returns *p resized to n, reusing the backing array when wide
// enough.
func growInt32(p *[]int32, n int) []int32 {
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	return (*p)[:n]
}

// alignChunk stages one memory-sized chunk and runs the two extension
// grids.
func alignChunk(dev *cuda.Device, left, right *cuda.Stream, pairs []seq.Pair, results []xdrop.SeedResult,
	cfg Config, threads, bandAlloc int, out *BatchResult) error {
	n := len(pairs)

	// Host-side staging: left extensions reversed (Figs. 5-6), then right
	// extensions, all in one arena per side with offset tables.
	stage := func(sc *hostScratch, leftSide bool) {
		sc.qOff = growInt32(&sc.qOff, n)
		sc.qLen = growInt32(&sc.qLen, n)
		sc.tOff = growInt32(&sc.tOff, n)
		sc.tLen = growInt32(&sc.tLen, n)
		total := 0
		for i := range pairs {
			p := &pairs[i]
			if leftSide {
				total += p.SeedQPos + p.SeedTPos
			} else {
				total += len(p.Query) + len(p.Target) - 2*p.SeedLen - p.SeedQPos - p.SeedTPos
			}
		}
		if cap(sc.arena) < total {
			sc.arena = make([]byte, 0, total)
		}
		arena := sc.arena[:0]
		for i := range pairs {
			p := &pairs[i]
			var q, t seq.Seq
			if leftSide {
				q = p.Query.Sub(0, p.SeedQPos)
				t = p.Target.Sub(0, p.SeedTPos)
			} else {
				q = p.Query.Sub(p.SeedQPos+p.SeedLen, len(p.Query))
				t = p.Target.Sub(p.SeedTPos+p.SeedLen, len(p.Target))
			}
			sc.qOff[i], sc.qLen[i] = int32(len(arena)), int32(len(q))
			if leftSide {
				arena = seq.AppendReverse(arena, q)
			} else {
				arena = append(arena, q...)
			}
			sc.tOff[i], sc.tLen[i] = int32(len(arena)), int32(len(t))
			if leftSide {
				arena = seq.AppendReverse(arena, t)
			} else {
				arena = append(arena, t...)
			}
		}
		sc.arena = arena
	}

	runSide := func(sc *hostScratch, stream *cuda.Stream, leftSide bool) error {
		stage(sc, leftSide)
		arena, off := sc.arena, sc
		name := "logan-right-ext"
		if leftSide {
			name = "logan-left-ext"
		}
		opts := extKernelOpts{
			sharedAntidiags: cfg.SharedMemAntidiags,
			// Without the Fig. 6 reversal, the left extension's streams
			// run against the memory direction.
			uncoalescedSeq: cfg.NoQueryReversal && leftSide,
		}
		sharedBytes := 0
		if cfg.SharedMemAntidiags {
			// Worst-case per-block reservation (§IV-B): collapses SM
			// residency to one block.
			sharedBytes = 60 << 10
		}
		seqBuf, err := cuda.Alloc[byte](dev, max(len(arena), 1))
		if err != nil {
			return fmt.Errorf("core: %s sequences: %w", name, err)
		}
		defer seqBuf.Free()
		scratch, err := cuda.Alloc[int32](dev, n*3*bandAlloc)
		if err != nil {
			return fmt.Errorf("core: %s anti-diagonals: %w", name, err)
		}
		defer scratch.Free()
		resBuf, err := cuda.Alloc[int64](dev, n*extFields)
		if err != nil {
			return fmt.Errorf("core: %s results: %w", name, err)
		}
		defer resBuf.Free()

		cuda.MemcpyHtoD(stream, seqBuf, arena)
		out.TransferBytes += int64(len(arena))

		seqData := seqBuf.Data()
		scratchData := scratch.Data()
		resData := resBuf.Data()
		stats, err := stream.LaunchAsync(cuda.LaunchConfig{
			Name: name, Grid: n, Block: threads, Shared: sharedBytes,
		}, func(b *cuda.BlockCtx) {
			i := b.BlockIdx
			q := seqData[off.qOff[i] : off.qOff[i]+off.qLen[i]]
			t := seqData[off.tOff[i] : off.tOff[i]+off.tLen[i]]
			r := extendOnBlock(b, q, t, cfg.Scoring, cfg.X, scratchData[i*3*bandAlloc:(i+1)*3*bandAlloc], bandAlloc, opts)
			rec := resData[i*extFields : (i+1)*extFields]
			rec[0] = int64(r.score)
			rec[1] = int64(r.qEnd)
			rec[2] = int64(r.tEnd)
			rec[3] = r.cells
			rec[4] = int64(r.antiDiags)
			rec[5] = int64(r.maxBand)
			rec[6] = r.sumBand
			if r.overflow {
				rec[7] = 1
			}
			b.GlobalWrite(cuda.TrafficStream, extFields*8, true)
		})
		if err != nil {
			return err
		}
		out.Stats.Accumulate(stats)
		out.Launches++

		if cap(sc.hostRes) < n*extFields {
			sc.hostRes = make([]int64, n*extFields)
		}
		hostRes := sc.hostRes[:n*extFields]
		cuda.MemcpyDtoH(stream, hostRes, resBuf)
		out.TransferBytes += int64(n * extFields * 8)

		if cap(sc.exts) < n {
			sc.exts = make([]extResult, n)
		}
		exts := sc.exts[:n]
		for i := range exts {
			rec := hostRes[i*extFields : (i+1)*extFields]
			exts[i] = extResult{
				score: int32(rec[0]), qEnd: int32(rec[1]), tEnd: int32(rec[2]),
				cells: rec[3], antiDiags: int32(rec[4]), maxBand: int32(rec[5]),
				sumBand: rec[6], overflow: rec[7] != 0,
			}
		}
		sc.exts = exts
		return nil
	}

	// The two sides run on their own streams; kernels contend for the
	// compute engine in the model, transfers for the copy engine. Each
	// side's staging scratch is pooled and returned once the results have
	// been merged.
	ls := scratchPool.Get().(*hostScratch)
	rs := scratchPool.Get().(*hostScratch)
	defer scratchPool.Put(ls)
	defer scratchPool.Put(rs)
	if err := runSide(ls, left, true); err != nil {
		return err
	}
	if err := runSide(rs, right, false); err != nil {
		return err
	}

	for i := range pairs {
		p := &pairs[i]
		l, r := ls.exts[i], rs.exts[i]
		sr := xdrop.SeedResult{
			Left:    toXdropResult(l),
			Right:   toXdropResult(r),
			SeedLen: p.SeedLen,
		}
		sr.Score = sr.Left.Score + sr.Right.Score + int32(p.SeedLen)*cfg.Scoring.Match
		sr.QBegin = p.SeedQPos - sr.Left.QueryEnd
		sr.TBegin = p.SeedTPos - sr.Left.TargetEnd
		sr.QEnd = p.SeedQPos + p.SeedLen + sr.Right.QueryEnd
		sr.TEnd = p.SeedTPos + p.SeedLen + sr.Right.TargetEnd
		results[i] = sr
	}
	return nil
}

func toXdropResult(e extResult) xdrop.Result {
	return xdrop.Result{
		Score:     e.score,
		QueryEnd:  int(e.qEnd),
		TargetEnd: int(e.tEnd),
		Cells:     e.cells,
		AntiDiags: int(e.antiDiags),
		MaxBand:   int(e.maxBand),
		SumBand:   e.sumBand,
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
