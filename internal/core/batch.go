package core

import (
	"context"
	"fmt"
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
// seed-split into left/right extension tasks, sequences charged to device
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
		if err := xdrop.CheckSeed(p.Query, p.Target, p.SeedQPos, p.SeedTPos, p.SeedLen); err != nil {
			return out, fmt.Errorf("core: pair %d: %w", i, err)
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

	// Per-pair device footprint: its bases + 3 anti-diagonal
	// buffers per extension + the result records.
	maxExtLen := 0
	var maxPairBytes int64
	for i := range pairs {
		p := &pairs[i]
		lq, lt := side(p, true)
		rq, rt := side(p, false)
		maxExtLen = max(maxExtLen, len(lq), len(lt), len(rq), len(rt))
		maxPairBytes = max(maxPairBytes, int64(len(p.Query)+len(p.Target)))
	}
	bandAlloc := BandAlloc(cfg.X, maxExtLen)
	// Conservative per-pair footprint (worst pair), so a chunk sized from
	// it always fits the remaining capacity.
	perPair := maxPairBytes + // bases
		2*3*int64(bandAlloc)*4 + // anti-diagonals, both extensions
		2*resultRecordBytes // result records
	free := dev.Spec.HBMBytes - dev.Allocated()
	chunkPairs := int(free * 9 / 10 / max(perPair, 1))
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

// side returns the query and target of one extension of p: the prefixes
// before the seed for its left extension, the suffixes after it for its
// right one. The left prefixes are passed as they stand; the extension
// stages them reversed (Workspace.ExtendTrace with rev, paper Figs. 5-6).
func side(p *seq.Pair, leftSide bool) (q, t seq.Seq) {
	if leftSide {
		return p.Query[:p.SeedQPos], p.Target[:p.SeedTPos]
	}
	return p.Query[p.SeedQPos+p.SeedLen:], p.Target[p.SeedTPos+p.SeedLen:]
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

// alignChunk charges one memory-sized chunk to the device and runs the
// two extension grids, each block writing its extension into the pair's
// result.
func alignChunk(dev *cuda.Device, left, right *cuda.Stream, pairs []seq.Pair, results []xdrop.SeedResult,
	cfg Config, threads, bandAlloc int, out *BatchResult) error {
	n := len(pairs)

	runSide := func(stream *cuda.Stream, leftSide bool) error {
		name := "logan-right-ext"
		if leftSide {
			name = "logan-left-ext"
		}
		var seqBytes int64
		for i := range pairs {
			q, t := side(&pairs[i], leftSide)
			seqBytes += int64(len(q) + len(t))
		}
		opts, sharedBytes := sideKernel(cfg, leftSide)
		// Device memory is a ledger: the side's bases, every block's three
		// rolling anti-diagonals and the result records hold HBM for the
		// launch, and the transfers occupy the copy engine, but the blocks
		// read the pairs in host memory.
		for _, a := range []struct {
			what  string
			bytes int64
		}{
			{"sequences", max(seqBytes, 1)},
			{"anti-diagonals", int64(n) * 3 * int64(bandAlloc) * 4},
			{"results", int64(n) * resultRecordBytes},
		} {
			buf, err := dev.Alloc(a.bytes)
			if err != nil {
				return fmt.Errorf("core: %s %s: %w", name, a.what, err)
			}
			defer buf.Free()
		}

		stream.Memcpy(seqBytes)
		out.TransferBytes += seqBytes

		stats, err := stream.LaunchAsync(cuda.LaunchConfig{
			Name: name, Grid: n, Block: threads, Shared: sharedBytes,
		}, func(b *cuda.BlockCtx) {
			q, t := side(&pairs[b.BlockIdx], leftSide)
			r := extendOnBlock(b, q, t, leftSide, cfg.Scoring, cfg.X, opts)
			if leftSide {
				results[b.BlockIdx].Left = r
			} else {
				results[b.BlockIdx].Right = r
			}
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
	// compute engine in the model, transfers for the copy engine.
	if err := runSide(left, true); err != nil {
		return err
	}
	if err := runSide(right, false); err != nil {
		return err
	}
	for i := range pairs {
		p, r := &pairs[i], &results[i]
		r.SeedLen = p.SeedLen
		xdrop.JoinSeed(r, p.SeedQPos, p.SeedTPos, int32(p.SeedLen)*cfg.Scoring.Match)
	}
	return nil
}
