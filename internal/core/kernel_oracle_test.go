package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"logan/internal/cuda"
	"logan/internal/seq"
	"logan/internal/xdrop"
)

// This file freezes the simulated device's kernel as it was before the
// device took its scores and band widths from the xdrop wavefront: its own
// X-drop DP loop over three HBM scratch buffers, with the accounting calls
// interleaved. It is the accounting oracle extendOnBlock's trace replay is
// held to (TestBlockAccountingMatchesOracle), and shares no code with the
// wavefront. The only edit is the reduction call, which now takes the
// anti-diagonal's width instead of its values.

const oracleNegInf int32 = math.MinInt32 / 2

// oracleResult is the frozen kernel's device-side outcome of one extension.
type oracleResult struct {
	score      int32
	qEnd, tEnd int32
	cells      int64
	antiDiags  int32
	maxBand    int32
	sumBand    int64
	overflow   bool // band outgrew the HBM reservation (should not happen)
}

// result converts the record into the wavefront's result type.
func (e oracleResult) result() xdrop.Result {
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

// extendOnBlockOracle runs one X-drop extension inside a simulated GPU block,
// writing the rolling anti-diagonals into the block's HBM scratch region
// (three buffers of bandAlloc cells each). The DP is semantically identical
// to xdrop.Extend; what differs is the execution shape: cells are updated
// in segments of blockDim lanes (paper Fig. 3), the anti-diagonal maximum
// comes from an in-warp reduction (Alg. 2), and every step is accounted on
// the BlockCtx.
//
// q and t are raw base bytes; for left extensions the caller has already
// reversed them (paper Figs. 5-6), which is also why every sequence read
// here is coalesced (unless the ablation switch says otherwise).
func extendOnBlockOracle(b *cuda.BlockCtx, q, t []byte, sc xdrop.Scoring, x int32, scratch []int32, bandAlloc int, opts extKernelOpts) oracleResult {
	res := oracleResult{}
	m, n := len(q), len(t)
	if m == 0 || n == 0 || x < 0 {
		return res
	}

	// Three rolling anti-diagonal buffers carved from the block's HBM
	// scratch region. base*: the i-index stored at region offset 0.
	// v*lo/v*hi: the valid (un-pruned) i range; empty when vlo > vhi.
	region := [3][]int32{}
	if len(scratch) >= 3*bandAlloc {
		region[0] = scratch[0:bandAlloc]
		region[1] = scratch[bandAlloc : 2*bandAlloc]
		region[2] = scratch[2*bandAlloc : 3*bandAlloc]
	} else {
		// Defensive fallback; flagged so tests catch sizing bugs.
		res.overflow = true
		region[0] = make([]int32, bandAlloc)
		region[1] = make([]int32, bandAlloc)
		region[2] = make([]int32, bandAlloc)
	}
	cur, prev, prev2 := 0, 1, 2 // rotating region indices

	// Anti-diagonal 0: S(0,0) = 0.
	region[prev][0] = 0
	base2, v2lo, v2hi := 0, 0, 0
	base3, v3lo, v3hi := 0, 0, -1 // empty
	best := int32(0)
	bestI, bestJ := int32(0), int32(0)
	res.antiDiags = 1
	res.cells = 1
	res.sumBand = 1
	res.maxBand = 1

	// Compulsory sequence traffic: each block streams its pair once.
	b.GlobalRead(cuda.TrafficStream, int64(m+n), true)

	lo, hi := 0, 1
	threads := b.Threads()
	for d := 1; d <= m+n; d++ {
		if lo < d-n {
			lo = d - n
		}
		if mh := min(d, m); hi > mh {
			hi = mh
		}
		if lo > hi {
			break
		}
		width := hi - lo + 1
		if width > len(region[cur]) {
			// Band outgrew its reservation: grow host-side and flag.
			res.overflow = true
			region[cur] = make([]int32, width)
		}
		a1 := region[cur][:width]
		a2 := region[prev]
		a3 := region[prev2]
		threshold := best - x

		newBest := best
		newBI, newBJ := bestI, bestJ
		for i := lo; i <= hi; i++ {
			j := d - i
			s := oracleNegInf
			if i >= 1 && j >= 1 && i-1 >= v3lo && i-1 <= v3hi {
				p := a3[i-1-base3]
				if p > oracleNegInf {
					if q[i-1] == t[j-1] {
						s = p + sc.Match
					} else {
						s = p + sc.Mismatch
					}
				}
			}
			g := oracleNegInf
			if j >= 1 && i >= v2lo && i <= v2hi {
				g = a2[i-base2]
			}
			if i >= 1 && i-1 >= v2lo && i-1 <= v2hi {
				if v := a2[i-1-base2]; v > g {
					g = v
				}
			}
			if g > oracleNegInf && g+sc.Gap > s {
				s = g + sc.Gap
			}
			if s < threshold {
				s = oracleNegInf
			} else if s > newBest {
				newBest = s
				newBI, newBJ = int32(i), int32(j)
			}
			a1[i-lo] = s
		}

		// Accounting: segment sweeps (Fig. 3), rolling-buffer traffic,
		// the Alg. 2 reduction, and the barrier. Traffic is charged per
		// segment: each segment issues one dependent round of global
		// accesses (anti-diagonal reads, sequence window, result write),
		// which is what exposes memory latency when occupancy cannot
		// hide it — the single-thread row of Table I.
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
		b.ReduceMax32(len(a1))
		b.Sync()

		res.cells += int64(width)
		res.sumBand += int64(width)
		res.antiDiags++
		if int32(width) > res.maxBand {
			res.maxBand = int32(width)
		}
		best = newBest
		bestI, bestJ = newBI, newBJ

		// Band trim (Alg. 1 lines 10-15).
		first, last := 0, width-1
		for first <= last && a1[first] == oracleNegInf {
			first++
		}
		for last >= first && a1[last] == oracleNegInf {
			last--
		}
		if first > last {
			break // X-drop termination
		}

		// Rotate: current becomes previous; the old prev2 region is
		// overwritten next iteration.
		base3, v3lo, v3hi = base2, v2lo, v2hi
		base2, v2lo, v2hi = lo, lo+first, lo+last
		prev2, prev, cur = prev, cur, prev2
		lo, hi = v2lo, v2hi+1
	}

	footprint := 2 * int64(res.maxBand) // sequence windows
	if !opts.sharedAntidiags {
		footprint += int64(3 * 4 * int(res.maxBand))
	}
	b.DeclareReuseFootprint(footprint)
	res.score = best
	res.qEnd, res.tEnd = bestI, bestJ
	return res
}

// TestBlockAccountingMatchesOracle launches the trace replay and the frozen
// kernel over the same staged extensions and requires equal KernelStats
// per launch, per block included, and equal results, across the ablation
// switches and block sizes, on both extension sides. Both run on one
// launch worker, so even the floating-point aggregates are summed in the
// same order; the replay is then repeated on a four-wide launch pool,
// where only those sums may round differently.
func TestBlockAccountingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	pairs := seq.RandPairSet(rng, seq.PairSetOptions{
		N: 16, MinLen: 40, MaxLen: 500, ErrorRate: 0.15, SeedLen: 17, SeedPosFrac: 0.4,
	})
	edge := seq.RandSeq(rng, 200)
	pairs = append(pairs,
		seq.Pair{Query: edge, Target: edge, SeedQPos: 0, SeedTPos: 0, SeedLen: 20},                      // empty left extension
		seq.Pair{Query: edge, Target: edge, SeedQPos: 180, SeedTPos: 180, SeedLen: 20},                  // empty right extension
		seq.Pair{Query: edge, Target: seq.RandSeq(rng, 900), SeedQPos: 100, SeedTPos: 450, SeedLen: 17}, // unrelated
	)
	copy(pairs[len(pairs)-1].Target[450:], edge[100:117])

	variants := []struct {
		name string
		mod  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"shared", func(c *Config) { c.SharedMemAntidiags = true }},
		{"noreversal", func(c *Config) { c.NoQueryReversal = true }},
		{"threads1", func(c *Config) { c.ThreadsPerBlock = 1 }},
		{"threads32", func(c *Config) { c.ThreadsPerBlock = 32 }},
		{"threads1024", func(c *Config) { c.ThreadsPerBlock = 1024 }},
	}
	// x = 9000 is past the vector envelope: the scalar kernel traces it.
	for _, x := range []int32{0, 7, 60, 9000} {
		for _, v := range variants {
			cfg := DefaultConfig(x)
			v.mod(&cfg)
			threads := cfg.ThreadsPerBlock
			if threads <= 0 {
				threads = ThreadsForX(x)
			}
			for _, leftSide := range []bool{true, false} {
				var sc hostScratch
				sc.stage(pairs, leftSide)
				opts, sharedBytes := sideKernel(cfg, leftSide)
				lc := cuda.LaunchConfig{Name: "ext", Grid: len(pairs), Block: threads, Shared: sharedBytes, PerBlock: true}
				bandAlloc := BandAlloc(x, 1000)
				launch := func(workers int, ext func(b *cuda.BlockCtx, q, t []byte) xdrop.Result) (cuda.KernelStats, []xdrop.Result) {
					dev := cuda.MustV100()
					dev.Workers = workers
					res := make([]xdrop.Result, len(pairs))
					stats, err := dev.Launch(lc, func(b *cuda.BlockCtx) {
						q, t := sc.extension(b.BlockIdx)
						res[b.BlockIdx] = ext(b, q, t)
						b.GlobalWrite(cuda.TrafficStream, resultRecordBytes, true)
					})
					if err != nil {
						t.Fatal(err)
					}
					return stats, res
				}
				replayed := func(b *cuda.BlockCtx, q, t []byte) xdrop.Result {
					return extendOnBlock(b, q, t, cfg.Scoring, cfg.X, opts)
				}
				got, gotRes := launch(1, replayed)
				want, wantRes := launch(1, func(b *cuda.BlockCtx, q, t []byte) xdrop.Result {
					return extendOnBlockOracle(b, q, t, cfg.Scoring, cfg.X, make([]int32, 3*bandAlloc), bandAlloc, opts).result()
				})
				where := fmt.Sprintf("x=%d %s left=%v", x, v.name, leftSide)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: launch stats differ from the frozen kernel:\n got %+v\nwant %+v", where, got, want)
				}
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("%s: results differ from the frozen kernel:\n got %+v\nwant %+v", where, gotRes, wantRes)
				}
				wide, _ := launch(4, replayed)
				if wide.Iter.Count != got.Iter.Count || math.Abs(wide.Iter.SumNopFill-got.Iter.SumNopFill) > 1e-9*got.Iter.SumNopFill {
					t.Fatalf("%s: iteration aggregates depend on the launch pool width: %+v vs %+v", where, wide.Iter, got.Iter)
				}
				wide.Iter = got.Iter
				if !reflect.DeepEqual(wide, got) {
					t.Fatalf("%s: counts depend on the launch pool width:\n 4 workers %+v\n 1 worker  %+v", where, wide, got)
				}
			}
		}
	}
}
