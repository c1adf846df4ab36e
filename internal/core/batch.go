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
	// to an xdrop.Pool batch on the same input.
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

// resultRecordBytes is the device-side result record of one extension
// (score, both ends, the work counters and a flag, as eight int64s): each
// block writes one, and each side's records are copied back once.
const resultRecordBytes = 8 * 8

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
	bandAlloc := BandAlloc(cfg.X, maxExtLen)
	// Conservative per-pair footprint (worst pair), so a chunk sized from
	// it always fits the remaining capacity.
	perPair := maxPairBytes + // staged bases
		2*3*int64(bandAlloc)*4 + // anti-diagonals, both extensions
		2*resultRecordBytes // result records
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
// the sequence arena, its offset tables and the extension results. Pooled
// so that repeated batches on a long-lived device stage without
// allocating.
type hostScratch struct {
	arena                  []byte
	qOff, qLen, tOff, tLen []int32
	exts                   []xdrop.Result
}

var scratchPool = sync.Pool{New: func() any { return new(hostScratch) }}

// grow returns *p resized to n, reusing the backing array when wide
// enough.
func grow[T any](p *[]T, n int) []T {
	if cap(*p) < n {
		*p = make([]T, n)
	}
	return (*p)[:n]
}

// stage lays one extension side of pairs out in the arena with offset
// tables: left extensions reversed (Figs. 5-6), right extensions forward.
func (sc *hostScratch) stage(pairs []seq.Pair, leftSide bool) {
	n := len(pairs)
	sc.qOff = grow(&sc.qOff, n)
	sc.qLen = grow(&sc.qLen, n)
	sc.tOff = grow(&sc.tOff, n)
	sc.tLen = grow(&sc.tLen, n)
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

// extension returns the staged query and target of extension i.
func (sc *hostScratch) extension(i int) (q, t []byte) {
	return sc.arena[sc.qOff[i] : sc.qOff[i]+sc.qLen[i]], sc.arena[sc.tOff[i] : sc.tOff[i]+sc.tLen[i]]
}

// sideKernel returns the launch shape and ablation switches of one
// extension side's grid.
func sideKernel(cfg Config, leftSide bool) (extKernelOpts, int) {
	opts := extKernelOpts{
		sharedAntidiags: cfg.SharedMemAntidiags,
		// Without the Fig. 6 reversal, the left extension's streams run
		// against the memory direction.
		uncoalescedSeq: cfg.NoQueryReversal && leftSide,
	}
	sharedBytes := 0
	if cfg.SharedMemAntidiags {
		// Worst-case per-block reservation (§IV-B): collapses SM
		// residency to one block.
		sharedBytes = 60 << 10
	}
	return opts, sharedBytes
}

// alignChunk stages one memory-sized chunk and runs the two extension
// grids.
func alignChunk(dev *cuda.Device, left, right *cuda.Stream, pairs []seq.Pair, results []xdrop.SeedResult,
	cfg Config, threads, bandAlloc int, out *BatchResult) error {
	n := len(pairs)

	runSide := func(sc *hostScratch, stream *cuda.Stream, leftSide bool) error {
		sc.stage(pairs, leftSide)
		name := "logan-right-ext"
		if leftSide {
			name = "logan-left-ext"
		}
		opts, sharedBytes := sideKernel(cfg, leftSide)
		// Device memory is a ledger: the staged bases, every block's three
		// rolling anti-diagonals and the result records hold HBM for the
		// launch, and the transfers occupy the copy engine, but the blocks
		// read the host arena.
		for _, a := range []struct {
			what  string
			bytes int64
		}{
			{"sequences", int64(max(len(sc.arena), 1))},
			{"anti-diagonals", int64(n) * 3 * int64(bandAlloc) * 4},
			{"results", int64(n) * resultRecordBytes},
		} {
			buf, err := dev.Alloc(a.bytes)
			if err != nil {
				return fmt.Errorf("core: %s %s: %w", name, a.what, err)
			}
			defer buf.Free()
		}

		stream.Memcpy(int64(len(sc.arena)))
		out.TransferBytes += int64(len(sc.arena))

		sc.exts = grow(&sc.exts, n)
		stats, err := stream.LaunchAsync(cuda.LaunchConfig{
			Name: name, Grid: n, Block: threads, Shared: sharedBytes,
		}, func(b *cuda.BlockCtx) {
			q, t := sc.extension(b.BlockIdx)
			sc.exts[b.BlockIdx] = extendOnBlock(b, q, t, cfg.Scoring, cfg.X, opts)
			b.GlobalWrite(cuda.TrafficStream, resultRecordBytes, true)
		})
		if err != nil {
			return err
		}
		out.Stats.Accumulate(stats)
		out.Launches++

		stream.Memcpy(int64(n) * resultRecordBytes)
		out.TransferBytes += int64(n) * resultRecordBytes
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
		sr := xdrop.SeedResult{Left: ls.exts[i], Right: rs.exts[i], SeedLen: p.SeedLen}
		sr.Score = sr.Left.Score + sr.Right.Score + int32(p.SeedLen)*cfg.Scoring.Match
		sr.QBegin = p.SeedQPos - sr.Left.QueryEnd
		sr.TBegin = p.SeedTPos - sr.Left.TargetEnd
		sr.QEnd = p.SeedQPos + p.SeedLen + sr.Right.QueryEnd
		sr.TEnd = p.SeedTPos + p.SeedLen + sr.Right.TargetEnd
		results[i] = sr
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
