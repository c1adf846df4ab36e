package bella

import (
	"cmp"
	"context"
	"fmt"
	"strconv"
	"time"

	"logan/internal/backend"
	"logan/internal/genome"
	"logan/internal/par"
	"logan/internal/seq"
	"logan/internal/xdrop"
)

// Stage names one pipeline phase in Progress updates.
type Stage string

// Pipeline stages in execution order. StageDone is emitted once after the
// filter stage with the final counters.
const (
	StageCount   Stage = "count"
	StagePrune   Stage = "prune"
	StageMatrix  Stage = "matrix"
	StageSpGEMM  Stage = "spgemm"
	StageBinning Stage = "binning"
	StageAlign   Stage = "align"
	StageFilter  Stage = "filter"
	StageDone    Stage = "done"
)

// Progress is one pipeline progress update, emitted via Config.OnProgress
// when a stage completes and, during the alignment stage, after every
// aligned chunk (see Config.AlignBatch). Counter fields are cumulative and
// only ever grow; fields a stage has not reached yet are zero. It is also
// the one progress record of the layers above — package logan re-exposes
// it as OverlapProgress and the JSON tags are the progress block of
// GET /jobs/{id} and of a cluster lease extension — which is why it
// carries three fields the pipeline itself never sets: ReadsParsed, Shed
// and Retries belong to the caller's ingestion and admission control.
type Progress struct {
	Stage          Stage `json:"stage"`
	ReadsParsed    int   `json:"readsParsed"`
	ReliableKmers  int   `json:"reliableKmers"`  // after StagePrune
	CandidatePairs int   `json:"candidatePairs"` // after StageSpGEMM
	// ExtensionsDone/ExtensionsTotal track the alignment stage pair by
	// pair; the total is set from StageBinning on (the candidate pairs the
	// aligner will extend).
	ExtensionsDone  int `json:"extensionsDone"`
	ExtensionsTotal int `json:"extensionsTotal"`
	// Overlaps is the accepted overlap count, set by the filter stage.
	Overlaps int   `json:"overlaps,omitempty"`
	Shed     int64 `json:"shed"`
	Retries  int64 `json:"retries"`
}

// Config parameterizes the pipeline.
type Config struct {
	K          int     // k-mer length
	Coverage   float64 // data set coverage, for the reliable-k-mer model
	ErrorRate  float64 // per-read error rate
	X          int32   // X-drop threshold for the alignment stage
	Scoring    xdrop.Scoring
	BinWidth   int     // binning diagonal width
	MinShared  int     // min shared reliable k-mers per candidate
	MaxSeeds   int     // seeds retained per pair
	Delta      float64 // adaptive-threshold cushion
	Workers    int     // CPU workers for stages 1-5 and traceback (0: GOMAXPROCS); results do not depend on it
	ReliableLo int32   // override reliable bounds when > 0
	ReliableHi int32
	// MinOverlap drops accepted overlaps whose aligned query extent is
	// shorter than this many bases (BELLA reports >= 2 kb on real data).
	MinOverlap int
	// Traceback recovers base-level alignments (CIGAR) for the accepted
	// overlaps. LOGAN itself is score-only (paper §IV-A); real pipelines
	// recompute alignments only for survivors, which is what this does,
	// by re-running each survivor's X-drop extension with traceback.
	Traceback bool
	// AlignBatch chunks the alignment stage: candidate pairs are handed to
	// Run's extend function at most AlignBatch at a time, with a context
	// check and a Progress update between chunks, so long alignment stages
	// cancel promptly and report incremental progress. 0 aligns everything
	// in one batch (the original behavior).
	AlignBatch int
	// OnProgress, when non-nil, receives pipeline progress updates. It is
	// called synchronously from Run's goroutine and must be fast; results
	// are deterministic regardless of whether it is set.
	OnProgress func(Progress)
}

// progress emits one update when a hook is installed.
func (c *Config) progress(p Progress) {
	if c.OnProgress != nil {
		c.OnProgress(p)
	}
}

// DefaultConfig mirrors BELLA's defaults for a long-read set: k = 17,
// 500-wide diagonal bins, one shared k-mer, 16 seeds per pair, delta =
// 0.25 (paper §V). This is the one place those five numbers are written;
// package logan's parameter table reads them from here, and every stage
// below takes them as resolved values.
func DefaultConfig(coverage, errRate float64, x int32) Config {
	return Config{
		K: 17, Coverage: coverage, ErrorRate: errRate, X: x,
		Scoring: xdrop.DefaultScoring(), BinWidth: 500,
		MinShared: 1, MaxSeeds: 16, Delta: 0.25,
	}
}

// Overlap is one accepted read overlap.
type Overlap struct {
	I, J     int32
	Score    int32
	Opposite bool
	// Extents of the alignment on both reads.
	QBegin, QEnd, TBegin, TEnd int
	EstOverlap                 int
	// CIGAR, Identity (matches over columns) and Matches (the CIGAR's =
	// columns) are filled when Config.Traceback is set.
	CIGAR    string
	Identity float64
	Matches  int
}

// StageTimes records measured wall time per pipeline stage. Count, Prune
// and Matrix split the one k-mer pass of stages 1-3.
type StageTimes struct {
	// Count is the pass's scans and sort: the prefilter scan (when the
	// lower reliable bound is 2 or more), the scan that emits the
	// admitted windows and the radix sort of their records.
	Count time.Duration
	// Prune is the walk over the sorted runs: exact counts, the reliable
	// test and the cut to one occurrence per read.
	Prune time.Duration
	// Matrix is the assembly of the kept runs into the SparseMatrix.
	Matrix    time.Duration
	SpGEMM    time.Duration
	Binning   time.Duration
	Alignment time.Duration
	Filter    time.Duration
}

// Total sums all stages.
func (s StageTimes) Total() time.Duration {
	return s.Count + s.Prune + s.Matrix + s.SpGEMM + s.Binning + s.Alignment + s.Filter
}

// Result is the pipeline outcome with full stage accounting.
type Result struct {
	Overlaps   []Overlap
	Candidates int
	Reliable   int
	NNZ        int64
	Times      StageTimes
	// Cells is the DP work of the alignment stage; DeviceTime its modeled
	// GPU time, summed over the chunks (zero on pure-CPU extension).
	Cells      int64
	DeviceTime time.Duration
	Bounds     [2]int32
}

// Prepared is the outcome of the overlap-detection phase (stages 1-5):
// everything before the pairwise-alignment stage that LOGAN accelerates.
// The experiment harness reuses one Prepared across an X sweep, since X
// only affects alignment.
type Prepared struct {
	Cands      []Candidate
	Seeds      []ChosenSeed
	Pairs      []seq.Pair
	Candidates int
	Reliable   int
	NNZ        int64
	Bounds     [2]int32
	Times      StageTimes // alignment/filter left zero
}

// Prepare runs k-mer counting, pruning and matrix construction (one k-mer
// pass: see StageTimes), SpGEMM and binning — BELLA's overlap-detection
// phase. The context is checked between stages, so a cancelled
// preparation stops at the next stage boundary and returns the context's
// error.
func Prepare(ctx context.Context, rs genome.ReadSet, cfg Config) (Prepared, error) {
	var out Prepared
	if cfg.K <= 0 || cfg.K > seq.MaxK {
		return out, fmt.Errorf("bella: k=%d outside (0,%d]", cfg.K, seq.MaxK)
	}
	if err := cfg.Scoring.Validate(); err != nil {
		return out, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if len(rs.Reads) == 0 {
		return out, nil
	}

	// Stages 1-3 are one k-mer pass. Stage 1 scans the reads, behind the
	// prefilter when singletons are not reliable, and sorts the k-mers.
	t0 := time.Now()
	workers := par.Workers(cfg.Workers)
	lo, hi := cfg.ReliableLo, cfg.ReliableHi
	if lo <= 0 || hi <= 0 {
		lo, hi = ReliableBounds(cfg.Coverage, cfg.ErrorRate, cfg.K, 1e-3)
	}
	out.Bounds = [2]int32{lo, hi}
	runs := sortKmers(rs.Reads, cfg.K, workers, lo, true)
	out.Times.Count = time.Since(t0)
	cfg.progress(Progress{Stage: StageCount})
	if err := ctx.Err(); err != nil {
		return out, err
	}

	// Stage 2: reliable-k-mer pruning, on the exact counts the sorted
	// runs give.
	t0 = time.Now()
	runs.prune(workers, lo, hi, nil)
	for _, c := range runs.cols {
		out.Reliable += c
	}
	out.Times.Prune = time.Since(t0)
	cfg.progress(Progress{Stage: StagePrune, ReliableKmers: out.Reliable})
	if err := ctx.Err(); err != nil {
		return out, err
	}

	// Stage 3: sparse matrix assembly from the kept runs.
	t0 = time.Now()
	mat := runs.matrix(cfg.K, len(rs.Reads), workers)
	out.NNZ = mat.NNZ
	out.Times.Matrix = time.Since(t0)
	cfg.progress(Progress{Stage: StageMatrix, ReliableKmers: out.Reliable})
	if err := ctx.Err(); err != nil {
		return out, err
	}

	// Stage 4: SpGEMM overlap detection.
	t0 = time.Now()
	out.Cands = mat.SpGEMM(SpGEMMOptions{MaxSeedsPerPair: cfg.MaxSeeds, MinShared: cfg.MinShared})
	out.Candidates = len(out.Cands)
	out.Times.SpGEMM = time.Since(t0)
	cfg.progress(Progress{Stage: StageSpGEMM, ReliableKmers: out.Reliable, CandidatePairs: out.Candidates})
	if err := ctx.Err(); err != nil {
		return out, err
	}

	// Stage 5: binning and seed choice.
	t0 = time.Now()
	out.Seeds = make([]ChosenSeed, len(out.Cands))
	par.Range(len(out.Cands), workers, func(_, lo, hi int) {
		for i, c := range out.Cands[lo:hi] {
			out.Seeds[lo+i] = ChooseSeed(c, len(rs.Reads[c.I].Seq), len(rs.Reads[c.J].Seq), cfg.K, cfg.BinWidth)
		}
	})
	out.Pairs = BuildAlignmentPairs(rs.Reads, out.Cands, out.Seeds, cfg.K)
	out.Times.Binning = time.Since(t0)
	cfg.progress(Progress{
		Stage: StageBinning, ReliableKmers: out.Reliable,
		CandidatePairs: out.Candidates, ExtensionsTotal: len(out.Pairs),
	})
	return out, ctx.Err()
}

// Run executes the full BELLA pipeline over the read set. Its alignment
// stage hands the candidate pairs to extend, in Config.AlignBatch chunks,
// and extend writes each chunk's results into the one result slice Run
// sized for them: that is the stage LOGAN replaces (§V). Offline callers
// pass a backend's ExtendBatch (backend.NewCPU(w).ExtendBatch is BELLA's
// SeqAn-style CPU baseline); package logan passes its engine's extend path.
// Cancelling ctx stops the pipeline at the next stage boundary — or, with
// Config.AlignBatch set, at the next alignment chunk — and returns the
// context's error.
func Run(ctx context.Context, rs genome.ReadSet, cfg Config, extend backend.ExtendFunc) (Result, error) {
	var out Result
	if ctx == nil {
		ctx = context.Background()
	}
	prep, err := Prepare(ctx, rs, cfg)
	if err != nil {
		return out, err
	}
	if len(rs.Reads) == 0 {
		return out, nil
	}
	out.Candidates = prep.Candidates
	out.Reliable = prep.Reliable
	out.NNZ = prep.NNZ
	out.Bounds = prep.Bounds
	out.Times = prep.Times
	cands, seeds, pairs := prep.Cands, prep.Seeds, prep.Pairs

	// Stage 6: pairwise alignment (the 90%-of-runtime stage LOGAN moves
	// to the GPU), chunked by AlignBatch so cancellation is observed and
	// progress reported mid-stage.
	t0 := time.Now()
	aligned := make([]xdrop.SeedResult, len(pairs))
	if err := alignChunked(ctx, pairs, aligned, cfg, extend, &out); err != nil {
		return out, fmt.Errorf("bella: alignment stage: %w", err)
	}
	out.Times.Alignment = time.Since(t0)

	// Stage 7: adaptive-threshold filtering, then the optional traceback
	// of the survivors.
	t0 = time.Now()
	var src []int // the candidate behind each accepted overlap
	for i, c := range cands {
		th := AdaptiveThreshold(cfg.ErrorRate, cfg.Delta, seeds[i].EstOverlap)
		if aligned[i].QEnd-aligned[i].QBegin < cfg.MinOverlap {
			continue
		}
		if aligned[i].Score < th {
			continue
		}
		out.Overlaps = append(out.Overlaps, Overlap{
			I: c.I, J: c.J,
			Score:    aligned[i].Score,
			Opposite: seeds[i].Opposite,
			QBegin:   aligned[i].QBegin, QEnd: aligned[i].QEnd,
			TBegin: aligned[i].TBegin, TEnd: aligned[i].TEnd,
			EstOverlap: seeds[i].EstOverlap,
		})
		src = append(src, i)
	}
	if cfg.Traceback {
		if err := traceback(ctx, out.Overlaps, src, pairs, aligned, cfg); err != nil {
			return out, err
		}
	}
	out.Times.Filter = time.Since(t0)
	done := Progress{
		Stage: StageFilter, ReliableKmers: out.Reliable, CandidatePairs: out.Candidates,
		ExtensionsDone: len(pairs), ExtensionsTotal: len(pairs), Overlaps: len(out.Overlaps),
	}
	cfg.progress(done)
	done.Stage = StageDone
	cfg.progress(done)
	return out, nil
}

// traceback fills CIGAR, Identity and Matches of every accepted overlap
// by re-running its seed-and-extend with traceback (ExtendSeedOps), on
// cfg.Workers workers with one Workspace each. The re-extension is stage
// 6's wavefront, so a result that differs from stage 6's, or columns
// that do not rescore to its score over exactly its intervals, is an
// error. src maps each overlap to its candidate in pairs and aligned.
func traceback(ctx context.Context, ovs []Overlap, src []int, pairs []seq.Pair, aligned []xdrop.SeedResult, cfg Config) error {
	errs := make([]error, par.Workers(cfg.Workers))
	par.Range(len(ovs), len(errs), func(w, lo, hi int) {
		ws := xdrop.NewWorkspace()
		var ops []xdrop.Op
		for k := lo; k < hi && errs[w] == nil; k++ {
			if errs[w] = ctx.Err(); errs[w] != nil {
				return
			}
			ov, p := &ovs[k], pairs[src[k]]
			r, o, err := ws.ExtendSeedOps(p.Query, p.Target, p.SeedQPos, p.SeedTPos, p.SeedLen, cfg.Scoring, cfg.X, ops[:0])
			ops = o
			var score int32
			if err == nil && r != aligned[src[k]] {
				err = fmt.Errorf("re-extension %+v differs from stage 6's %+v", r, aligned[src[k]])
			}
			if err == nil {
				score, err = xdrop.Rescore(ops, p.Query[r.QBegin:r.QEnd], p.Target[r.TBegin:r.TEnd], cfg.Scoring)
			}
			if err == nil && score != r.Score {
				err = fmt.Errorf("CIGAR rescores to %d, score %d", score, r.Score)
			}
			if err != nil {
				errs[w] = fmt.Errorf("bella: traceback for pair (%d,%d): %w", ov.I, ov.J, err)
				return
			}
			ov.CIGAR, ov.Matches = cigarOf(ops)
			ov.Identity = float64(ov.Matches) / float64(len(ops))
		}
	})
	return cmp.Or(errs...)
}

// cigarOf run-length encodes alignment columns, extended-CIGAR style,
// and counts their matches.
func cigarOf(ops []xdrop.Op) (string, int) {
	var buf []byte
	matches := 0
	for i := 0; i < len(ops); {
		j := i + 1
		for j < len(ops) && ops[j] == ops[i] {
			j++
		}
		if ops[i] == xdrop.OpMatch {
			matches += j - i
		}
		buf = append(strconv.AppendInt(buf, int64(j-i), 10), byte(ops[i]))
		i = j
	}
	return string(buf), matches
}

// alignChunked extends pairs into aligned in AlignBatch-sized chunks (one
// batch when AlignBatch <= 0), checking ctx and emitting a Progress update
// between chunks, and adds each chunk's work to out.
func alignChunked(ctx context.Context, pairs []seq.Pair, aligned []xdrop.SeedResult, cfg Config, extend backend.ExtendFunc, out *Result) error {
	chunk := cfg.AlignBatch
	if chunk <= 0 || chunk > len(pairs) {
		chunk = len(pairs)
	}
	sch := xdrop.LinearScheme(cfg.Scoring)
	for lo := 0; lo < len(pairs); lo += chunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(lo+chunk, len(pairs))
		st, err := extend(ctx, pairs[lo:hi], aligned[lo:hi], sch, cfg.X)
		if err != nil {
			return err
		}
		out.Cells += st.Cells
		out.DeviceTime += st.DeviceTime
		cfg.progress(Progress{
			Stage: StageAlign, ReliableKmers: out.Reliable, CandidatePairs: out.Candidates,
			ExtensionsDone: hi, ExtensionsTotal: len(pairs),
		})
	}
	return nil
}
