package logan

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"logan/internal/backend"
	"logan/internal/bella"
	"logan/internal/genome"
	"logan/internal/seq"
	"logan/internal/telemetry"
	"logan/internal/xdrop"
)

// Read is one input sequence of an overlap run: a record name (reported in
// the PAF output) and its bases in the upper- or lower-case ACGTN
// alphabet. Sequence bytes are aliased during the run, not copied; do not
// mutate them until Run returns.
type Read struct {
	Name string
	Seq  []byte
}

// OverlapStage names a phase of the overlap pipeline in progress updates,
// in execution order: "count" (k-mer counting), "prune" (reliable-k-mer
// pruning), "matrix", "spgemm" (candidate detection), "binning" (seed
// choice), "align" (batched X-drop extension, the stage LOGAN
// accelerates), "filter" (adaptive threshold) and "done".
type OverlapStage = bella.Stage

// Overlap pipeline stages, plus the ingestion pseudo-stage reported while
// RunFasta is still parsing records.
const (
	StageIngest  OverlapStage = "ingest"
	StageCount                = bella.StageCount
	StagePrune                = bella.StagePrune
	StageMatrix               = bella.StageMatrix
	StageSpGEMM               = bella.StageSpGEMM
	StageBinning              = bella.StageBinning
	StageAlign                = bella.StageAlign
	StageFilter               = bella.StageFilter
	StageDone                 = bella.StageDone
)

// OverlapProgress is one progress snapshot of an overlap run, delivered
// via OverlapConfig.OnProgress: the pipeline's own record (its fields
// are documented there), whose JSON form is also the progress block of
// GET /jobs/{id} and of a cluster worker's lease extension. ReadsParsed
// grows during "ingest" for RunFasta and is set up front for Run; Shed
// and Retries count coalescer admission rejections of extension chunks
// and their re-submissions.
type OverlapProgress = bella.Progress

// OverlapConfig parameterizes one overlap run: the BELLA pipeline's
// detection parameters plus the X-drop extension configuration. The zero
// value is not valid; start from DefaultOverlapConfig. The numeric
// fields are the rows of Params, which declares each one's default and
// bounds. K, Coverage, ErrorRate, Delta, X, MinOverlap and Workers are
// taken as written; 0 in any other numeric field selects its default.
type OverlapConfig struct {
	// K is the k-mer length shared by counting, candidate detection and
	// seeding.
	K int
	// Coverage and ErrorRate describe the data set for the reliable-k-mer
	// model: mean sequencing depth and per-base error rate.
	Coverage, ErrorRate float64
	// X is the X-drop termination threshold of the extension stage.
	X int32
	// Scoring is the extension scheme. The overlap pipeline's adaptive
	// threshold is calibrated for linear DNA scoring (the paper's
	// +1/-1/-1 family); only LinearScoring configurations validate.
	Scoring Scoring
	// BinWidth is the diagonal width of seed binning.
	BinWidth int
	// MinShared is the minimum shared reliable k-mers per candidate pair.
	MinShared int
	// MaxSeeds caps the seeds retained per candidate pair.
	MaxSeeds int
	// Delta is the adaptive-threshold cushion.
	Delta float64
	// MinOverlap drops overlaps whose aligned query extent is shorter
	// than this many bases.
	MinOverlap int
	// Traceback recovers base-level CIGAR strings for accepted overlaps
	// by re-running their X-drop extensions with traceback, so every
	// CIGAR rescores to its record's score.
	Traceback bool
	// BatchPairs chunks the extension stage: at most this many pairs are
	// submitted to the engine per batch, with cancellation checks and
	// progress updates between chunks.
	BatchPairs int
	// Workers bounds the CPU workers of the overlap-detection stages
	// before extension — k-mer counting, matrix construction, binning —
	// (0 selects GOMAXPROCS). Results do not depend on it.
	Workers int
	// OnProgress, when non-nil, receives progress snapshots. It is called
	// synchronously from the run's goroutines and must return quickly.
	OnProgress func(OverlapProgress)
}

// DefaultCoverage and DefaultErrorRate are the data-set assumptions a
// job that states neither is run under: the defaults of the coverage and
// errorRate rows.
const (
	DefaultCoverage  = 6.0
	DefaultErrorRate = 0.15
)

// bellaDefaults holds BELLA's five detection defaults, declared once
// beside the pipeline where internal/bench reads them too.
var bellaDefaults = bella.DefaultConfig(0, 0, 0)

// Params returns the overlap parameter table bound to c's fields, in
// wire order. K, Coverage, ErrorRate and Delta are taken as written in a
// struct and on a flag — 0 is error-free reads, no cushion, and no k at
// all — while their query, JSON and Spec header forms read 0 as absent,
// as they always did.
func (c *OverlapConfig) Params() Params {
	return Params{
		{name: "k", ptr: &c.K, def: float64(bellaDefaults.K), zero: zeroAbsentOnWire, min: 1, max: seq.MaxK,
			doc: "k-mer length shared by counting, candidate detection and seeding"},
		{name: "coverage", ptr: &c.Coverage, def: DefaultCoverage, zero: zeroAbsentOnWire, min: 0, max: 1000,
			doc: "mean sequencing depth of the data set, for the reliable-k-mer model"},
		{name: "errorRate", ptr: &c.ErrorRate, def: DefaultErrorRate, zero: zeroAbsentOnWire, min: 0, max: 1, openMax: true,
			doc: "per-base error rate of the data set"},
		{name: "x", ptr: &c.X, min: 0, max: math.MaxInt32,
			doc: "X-drop termination threshold of the extension stage"},
		{name: "binWidth", ptr: &c.BinWidth, def: float64(bellaDefaults.BinWidth), zero: zeroAbsent, min: 1, max: 1 << 20,
			doc: "diagonal width of seed binning"},
		{name: "minShared", ptr: &c.MinShared, def: float64(bellaDefaults.MinShared), zero: zeroAbsent, min: 1, max: 1 << 16,
			doc: "minimum shared reliable k-mers per candidate pair"},
		{name: "maxSeeds", ptr: &c.MaxSeeds, def: float64(bellaDefaults.MaxSeeds), zero: zeroAbsent, min: 1, max: 1 << 10,
			doc: "seeds retained per candidate pair"},
		{name: "delta", ptr: &c.Delta, def: bellaDefaults.Delta, zero: zeroAbsentOnWire, min: -1e9, max: 1e9,
			doc: "adaptive-threshold cushion"},
		{name: "minOverlap", ptr: &c.MinOverlap, min: 0, max: math.MaxInt32,
			doc: "drop overlaps whose aligned query extent is shorter than this many bases"},
		// 2048 amortizes per-batch scheduling while cancellation and
		// progress stay prompt and chunks fit typical merge targets.
		{name: "batchPairs", server: true, ptr: &c.BatchPairs, def: 2048, zero: zeroAbsent, min: 1, max: 1 << 20,
			doc: "extension pairs submitted to the engine per chunk"},
		{name: "workers", server: true, ptr: &c.Workers, min: 0, max: 1 << 10,
			doc: "CPU workers of the detection stages before extension (0 = GOMAXPROCS); results do not depend on it"},
	}
}

// DefaultOverlapConfig mirrors BELLA's defaults for a long-read set with
// the given coverage and per-base error rate — both taken as written —
// extending with the paper's +1/-1/-1 scoring at the given X.
func DefaultOverlapConfig(coverage, errRate float64, x int32) OverlapConfig {
	c := OverlapConfig{Scoring: LinearScoring(1, -1, -1)}
	c.Params().defaults()
	c.Coverage, c.ErrorRate, c.X = coverage, errRate, x
	return c
}

// Validate rejects configurations the pipeline cannot honor: a field
// outside its Params row's bounds (or not a number), a non-linear scoring
// scheme, or scheme/X values the engine itself rejects.
func (c OverlapConfig) Validate() error {
	if err := c.Params().check(); err != nil {
		return fmt.Errorf("logan: overlap %w", err)
	}
	if c.Scoring.mode != scoringLinear {
		return fmt.Errorf("logan: overlap scoring must be linear (got %q): the adaptive threshold is calibrated for the paper's match/mismatch/gap family", c.Scoring.Mode())
	}
	return Config{X: c.X, Scoring: c.Scoring}.Validate()
}

// bellaConfig lowers the public configuration, already resolved, onto
// the internal pipeline.
func (c OverlapConfig) bellaConfig() bella.Config {
	return bella.Config{
		K: c.K, Coverage: c.Coverage, ErrorRate: c.ErrorRate,
		X: c.X, Scoring: c.Scoring.linear,
		BinWidth: c.BinWidth, MinShared: c.MinShared, MaxSeeds: c.MaxSeeds,
		Delta: c.Delta, Workers: c.Workers,
		MinOverlap: c.MinOverlap, Traceback: c.Traceback,
		AlignBatch: c.BatchPairs,
	}
}

// OverlapRecord is one accepted overlap in PAF (Pairwise mApping Format)
// coordinates, the minimap2-ecosystem interchange form WritePAF emits. It
// is the pipeline's own record type (fields documented there), so
// offline and served PAF bytes come from one serializer, AppendText.
type OverlapRecord = bella.PAFRecord

// WritePAF serializes the records to w in PAF, buffered. The bytes are
// identical to the offline cmd/bella pipeline's output for the same run —
// both paths share one serializer.
func WritePAF(w io.Writer, recs []OverlapRecord) error { return bella.WriteRecords(w, recs) }

// OverlapStageTimes records measured wall time per pipeline stage. Count,
// Prune and Matrix split BELLA's one k-mer pass: Count is its scans (the
// singleton prefilter's and the emitting one) and the radix sort, Prune
// the walk over the sorted runs (exact counts, the reliable test, one
// occurrence per read), and Matrix the assembly of the sparse matrix.
type OverlapStageTimes = bella.StageTimes

// OverlapStats summarizes one overlap run.
type OverlapStats struct {
	// Reads is the ingested record count.
	Reads int
	// ReliableKmers and CandidatePairs are the detection-phase outcomes;
	// MatrixNNZ is the stored-entry count of the reads-by-k-mers sparse
	// matrix the SpGEMM multiplied.
	ReliableKmers  int
	CandidatePairs int
	MatrixNNZ      int64
	// Cells is the DP work of the extension stage; DeviceTime its modeled
	// GPU share (zero on pure-CPU engines).
	Cells      int64
	DeviceTime time.Duration
	// Times is the per-stage wall-time breakdown; WallTime the run total
	// including ingestion.
	Times    OverlapStageTimes
	WallTime time.Duration
	// Shed/Retries mirror the final OverlapProgress counters.
	Shed, Retries int64
}

// OverlapResult is the outcome of one overlap run: accepted overlaps in
// input order (by query index, then target index) plus run statistics.
type OverlapResult struct {
	Records []OverlapRecord
	Stats   OverlapStats
}

// OverlapperOptions tunes how an Overlapper submits extension work.
type OverlapperOptions struct {
	// Coalescer, when non-nil, routes extension chunks through the given
	// request coalescer's bulk lanes instead of straight onto the
	// engine's backend, so overlap work is scheduled behind concurrent
	// Align traffic under one admission policy. Results, traceback
	// included, are identical either way. Shed chunks (ErrOverloaded) are
	// re-submitted with backoff and counted in the run's Shed/Retries.
	// The coalescer must belong to the same engine.
	Coalescer *Coalescer
}

// Overlapper is the public overlap subsystem: the BELLA pipeline (k-mer
// seeding, candidate detection, binning) over a shared Aligner engine's
// batched X-drop extension, producing PAF records. It is the workload the
// paper integrates LOGAN into (§V) — many-to-many long-read overlap — as
// a first-class API. The pipeline hands its extension chunks to one
// extend function with the engine dispatch's signature (the engine's own,
// or the Coalescer's bulk entry) and gets their results back in its own
// result slice; shed chunks are retried on the way.
//
// An Overlapper is a thin stateless front end over its engine: it is safe
// for concurrent Run calls, and the engine keeps serving Align traffic
// concurrently (extension batches interleave with request batches on the
// same worker pools and devices). Closing the engine fails in-flight runs
// with ErrClosed; the Overlapper itself has nothing to close.
type Overlapper struct {
	eng  *Aligner
	path extendPath
}

// NewOverlapper builds an overlap front end over the engine.
func NewOverlapper(eng *Aligner, opt OverlapperOptions) (*Overlapper, error) {
	if eng == nil {
		return nil, errors.New("logan: NewOverlapper requires an engine")
	}
	return &Overlapper{eng: eng, path: newExtendPath(eng, opt.Coalescer, "overlap", "overlap extension chunks")}, nil
}

// Engine returns the engine the Overlapper extends on.
func (o *Overlapper) Engine() *Aligner { return o.eng }

// Run detects and aligns overlaps among the given reads. Records are
// returned in deterministic order; cancelling ctx abandons the run at the
// next stage boundary or extension chunk and returns the context's error.
func (o *Overlapper) Run(ctx context.Context, reads []Read, cfg OverlapConfig) (*OverlapResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	rs := genome.ReadSet{}
	rs.Reads = make([]genome.Read, len(reads))
	for i, r := range reads {
		s, err := seq.FromBytes(r.Seq)
		if err != nil {
			return nil, fmt.Errorf("logan: read %d (%s): %w", i, r.Name, err)
		}
		rs.Reads[i] = genome.Read{ID: i, Seq: s, Label: r.Name}
	}
	return o.run(ctx, rs, cfg, start)
}

// RunFasta is Run over streamed FASTA input: records are parsed
// incrementally (reporting "ingest" progress per read) and handed to the
// pipeline once the stream ends. The parse enforces no line or record
// size limits; callers admitting untrusted input should wrap r with an
// io.LimitReader.
func (o *Overlapper) RunFasta(ctx context.Context, r io.Reader, cfg OverlapConfig) (*OverlapResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	rs := genome.ReadSet{}
	err := readFasta(ctx, r, "fasta", func(rec seq.Record) {
		rs.Reads = append(rs.Reads, genome.Read{ID: len(rs.Reads), Seq: rec.Seq, Label: rec.Name})
		if cfg.OnProgress != nil {
			cfg.OnProgress(OverlapProgress{Stage: StageIngest, ReadsParsed: len(rs.Reads)})
		}
	})
	if err != nil {
		return nil, err
	}
	return o.run(ctx, rs, cfg, start)
}

// readFasta is the one FASTA ingest loop, of RunFasta, MapFasta and
// Mapper.Build: it hands each record of r to fn, checking ctx before
// every record, and wraps a parse error as "logan: <what>: ...".
func readFasta(ctx context.Context, r io.Reader, what string, fn func(seq.Record)) error {
	fr := seq.NewFastaReader(r)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		rec, err := fr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("logan: %s: %w", what, err)
		}
		fn(rec)
	}
}

// run executes the pipeline over an ingested read set.
func (o *Overlapper) run(ctx context.Context, rs genome.ReadSet, cfg OverlapConfig, start time.Time) (*OverlapResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg.Params().resolve()
	var n shedCount
	bcfg := cfg.bellaConfig()
	if cfg.OnProgress != nil {
		nReads := len(rs.Reads)
		bcfg.OnProgress = func(p OverlapProgress) {
			p.ReadsParsed = nReads
			p.Shed, p.Retries = n.shed.Load(), n.retries.Load()
			cfg.OnProgress(p)
		}
	}
	res, err := bella.Run(ctx, rs, bcfg, o.path.retrying(&n))
	if err != nil {
		return nil, err
	}
	return &OverlapResult{
		Records: bella.PAFRecords(rs.Reads, res.Overlaps),
		Stats: OverlapStats{
			Reads:          len(rs.Reads),
			ReliableKmers:  res.Reliable,
			CandidatePairs: res.Candidates,
			MatrixNNZ:      res.NNZ,
			Cells:          res.Cells,
			DeviceTime:     res.DeviceTime,
			Times:          res.Times,
			WallTime:       time.Since(start),
			Shed:           n.shed.Load(),
			Retries:        n.retries.Load(),
		},
	}, nil
}

// extendPath is how a pipeline (Overlapper, Mapper) reaches the engine:
// its extend function, the engine's dispatch or the Coalescer's bulk
// entry, and the registry totals of its shed chunks.
type extendPath struct {
	extend                backend.ExtendFunc
	shedTotal, retryTotal *telemetry.Counter
}

// newExtendPath picks the engine-direct dispatch, or coal's bulk entry
// when coal is non-nil, and registers the pipeline's shed and retry
// totals, logan_<pipeline>_shed_total and logan_<pipeline>_retries_total,
// in the engine registry; chunks names the pipeline's work units.
func newExtendPath(eng *Aligner, coal *Coalescer, pipeline, chunks string) extendPath {
	p := extendPath{
		extend: eng.extendPrepared,
		shedTotal: eng.tele.Counter("logan_"+pipeline+"_shed_total",
			strings.ToUpper(chunks[:1])+chunks[1:]+" shed by coalescer admission control."),
		retryTotal: eng.tele.Counter("logan_"+pipeline+"_retries_total",
			"Re-submissions of shed "+chunks+"."),
	}
	if coal != nil {
		p.extend = coal.extendBulk
	}
	return p
}

// shedCount tallies one run's shed chunks and their re-submissions.
type shedCount struct{ shed, retries atomic.Int64 }

// overlapMaxRetries bounds re-submissions of one shed chunk before the
// run fails with ErrOverloaded: sustained overload should fail the job,
// not wedge it.
const overlapMaxRetries = 10

// retrying returns the path's extend function for one run, with the
// pipelines' one shed-retry loop: a chunk the coalescer's admission
// control sheds is re-submitted with exponential backoff, and every shed
// and retry is counted in n and in the registry.
func (p extendPath) retrying(n *shedCount) backend.ExtendFunc {
	return func(ctx context.Context, in []seq.Pair, out []xdrop.SeedResult, sch xdrop.Scheme, x int32) (backend.BatchStats, error) {
		backoff := time.Millisecond
		for attempt := 0; ; attempt++ {
			bst, err := p.extend(ctx, in, out, sch, x)
			if !errors.Is(err, ErrOverloaded) {
				return bst, err
			}
			n.shed.Add(1)
			p.shedTotal.Inc()
			if attempt == overlapMaxRetries {
				return backend.BatchStats{}, fmt.Errorf("logan: extension chunk shed %d times: %w", attempt+1, err)
			}
			select {
			case <-ctx.Done():
				return backend.BatchStats{}, ctx.Err()
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, 100*time.Millisecond)
			n.retries.Add(1)
			p.retryTotal.Inc()
		}
	}
}
