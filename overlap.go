package logan

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"logan/internal/bella"
	"logan/internal/genome"
	"logan/internal/seq"
	"logan/internal/telemetry"
	"logan/internal/xdrop"
)

// ErrTracebackUnavailable reports an OverlapConfig requesting the CIGAR
// traceback post-pass on an Overlapper whose extensions are routed through
// a Coalescer: the coalescer's public result type carries scores and
// extents but not the per-direction band widths the banded traceback
// needs. Run traceback overlaps on an engine-direct Overlapper instead.
var ErrTracebackUnavailable = errors.New("logan: traceback requires an engine-direct Overlapper (not a coalescer-routed one)")

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
type OverlapStage string

// Overlap pipeline stages, plus the ingestion pseudo-stage reported while
// RunFasta is still parsing records.
const (
	StageIngest  OverlapStage = "ingest"
	StageCount   OverlapStage = OverlapStage(bella.StageCount)
	StagePrune   OverlapStage = OverlapStage(bella.StagePrune)
	StageMatrix  OverlapStage = OverlapStage(bella.StageMatrix)
	StageSpGEMM  OverlapStage = OverlapStage(bella.StageSpGEMM)
	StageBinning OverlapStage = OverlapStage(bella.StageBinning)
	StageAlign   OverlapStage = OverlapStage(bella.StageAlign)
	StageFilter  OverlapStage = OverlapStage(bella.StageFilter)
	StageDone    OverlapStage = OverlapStage(bella.StageDone)
)

// OverlapProgress is one progress snapshot of an overlap run, delivered
// via OverlapConfig.OnProgress. Counters are cumulative; fields whose
// stage has not run yet are zero.
type OverlapProgress struct {
	// Stage is the phase the pipeline is in (just finished, for stage
	// boundaries; mid-stage for "ingest" and "align" updates).
	Stage OverlapStage
	// ReadsParsed counts input records ingested so far (grows during
	// "ingest" for RunFasta; set once up front for Run).
	ReadsParsed int
	// ReliableKmers is the size of the pruned k-mer set.
	ReliableKmers int
	// CandidatePairs is the number of read pairs the SpGEMM detected.
	CandidatePairs int
	// ExtensionsDone/ExtensionsTotal track the batched X-drop extension
	// stage pair by pair (updated after every extension chunk).
	ExtensionsDone, ExtensionsTotal int
	// Overlaps is the accepted overlap count, set by the filter stage.
	Overlaps int
	// Shed counts extension chunks the engine's admission control
	// rejected (coalescer-routed Overlappers only); Retries counts the
	// re-submissions that followed. A completed run has re-submitted
	// every shed chunk successfully.
	Shed, Retries int64
}

// OverlapConfig parameterizes one overlap run: the BELLA pipeline's
// detection parameters plus the X-drop extension configuration. The zero
// value is not valid; start from DefaultOverlapConfig.
type OverlapConfig struct {
	// K is the k-mer length shared by counting, candidate detection and
	// seeding (BELLA's default is 17; must be in (0,31]).
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
	// BinWidth is the diagonal width of seed binning (default 500).
	BinWidth int
	// MinShared is the minimum shared reliable k-mers per candidate pair
	// (default 1).
	MinShared int
	// MaxSeeds caps the seeds retained per candidate pair (default 16).
	MaxSeeds int
	// Delta is the adaptive-threshold cushion (default 0.25).
	Delta float64
	// MinOverlap drops overlaps whose aligned query extent is shorter
	// than this many bases.
	MinOverlap int
	// Traceback recovers base-level CIGAR strings for accepted overlaps
	// in a CPU post-pass (engine-direct Overlappers only).
	Traceback bool
	// BatchPairs chunks the extension stage: at most this many pairs are
	// submitted to the engine per batch, with cancellation checks and
	// progress updates between chunks (0 selects 2048).
	BatchPairs int
	// Workers bounds the CPU workers of the overlap-detection stages
	// before extension — k-mer counting, matrix construction, binning —
	// (0 selects GOMAXPROCS). Results do not depend on it.
	Workers int
	// OnProgress, when non-nil, receives progress snapshots. It is called
	// synchronously from the run's goroutines and must return quickly.
	OnProgress func(OverlapProgress)
}

// DefaultOverlapConfig mirrors BELLA's defaults for a long-read set with
// the given coverage and per-base error rate, extending with the paper's
// +1/-1/-1 scoring at the given X.
func DefaultOverlapConfig(coverage, errRate float64, x int32) OverlapConfig {
	return OverlapConfig{
		K: 17, Coverage: coverage, ErrorRate: errRate, X: x,
		Scoring:  LinearScoring(1, -1, -1),
		BinWidth: 500, MinShared: 1, MaxSeeds: 16, Delta: 0.25,
	}
}

// Validate rejects configurations the pipeline cannot honor: k outside
// (0,31], a non-linear scoring scheme, or scheme/X values the engine
// itself rejects.
func (c OverlapConfig) Validate() error {
	if c.K <= 0 || c.K > seq.MaxK {
		return fmt.Errorf("logan: overlap k=%d outside (0,%d]", c.K, seq.MaxK)
	}
	if c.Scoring.mode != scoringLinear {
		return fmt.Errorf("logan: overlap scoring must be linear (got %q): the adaptive threshold is calibrated for the paper's match/mismatch/gap family", c.Scoring.Mode())
	}
	return Config{X: c.X, Scoring: c.Scoring}.Validate()
}

// bellaConfig lowers the public configuration onto the internal pipeline.
func (c OverlapConfig) bellaConfig() bella.Config {
	batch := c.BatchPairs
	if batch <= 0 {
		batch = defaultOverlapBatch
	}
	return bella.Config{
		K: c.K, Coverage: c.Coverage, ErrorRate: c.ErrorRate,
		X: c.X, Scoring: c.Scoring.linear,
		BinWidth: c.BinWidth, MinShared: c.MinShared, MaxSeeds: c.MaxSeeds,
		Delta: c.Delta, Workers: c.Workers,
		MinOverlap: c.MinOverlap, Traceback: c.Traceback,
		AlignBatch: batch,
	}
}

// defaultOverlapBatch is the extension chunk size when BatchPairs is
// unset: big enough to amortize per-batch scheduling, small enough that
// cancellation and progress land promptly and that coalescer-routed
// chunks stay below typical merge targets.
const defaultOverlapBatch = 2048

// OverlapRecord is one accepted overlap in PAF (Pairwise mApping Format)
// coordinates — the minimap2-ecosystem interchange representation emitted
// by WritePAF. Target coordinates are always on the forward strand;
// Strand records which strand of the target the query aligns to.
type OverlapRecord struct {
	QName        string
	QLen         int
	QStart, QEnd int
	Strand       byte // '+' or '-'
	TName        string
	TLen         int
	TStart, TEnd int
	// Matches approximates PAF column 10 (residue matches): exact when
	// the traceback post-pass ran, estimated from the linear score
	// otherwise.
	Matches int
	// BlockLen is PAF column 11, the alignment block length.
	BlockLen int
	// MapQ is PAF column 12; the pipeline does not compute mapping
	// quality, so it is always 255 (missing).
	MapQ int
	// Score is the X-drop alignment score, emitted as the AS:i tag.
	Score int32
	// Divergence and CIGAR fill the de:f and cg:Z tags when
	// OverlapConfig.Traceback ran; CIGAR == "" omits both.
	Divergence float64
	CIGAR      string
	// QIndex/TIndex are the input-order indices of the two reads, for
	// callers that key on positions rather than names (they are not part
	// of the PAF serialization).
	QIndex, TIndex int
}

// AppendText appends the record's PAF line (including the trailing
// newline) to buf: the 12 mandatory columns, the AS:i score tag, and the
// de:f/cg:Z tags when a CIGAR is present. The struct conversion onto the
// internal serializer is the single source of truth for PAF bytes.
func (r OverlapRecord) AppendText(buf []byte) []byte {
	return bella.PAFRecord(r).AppendText(buf)
}

// WritePAF serializes the records to w in PAF, buffered. The bytes are
// identical to the offline cmd/bella pipeline's output for the same run —
// both paths share one serializer.
func WritePAF(w io.Writer, recs []OverlapRecord) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, rec := range recs {
		line = rec.AppendText(line[:0])
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// OverlapStageTimes records measured wall time per pipeline stage.
type OverlapStageTimes struct {
	Count     time.Duration
	Prune     time.Duration
	Matrix    time.Duration
	SpGEMM    time.Duration
	Binning   time.Duration
	Alignment time.Duration
	Filter    time.Duration
}

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
	// request coalescer instead of straight onto the engine's backend, so
	// overlap traffic merges with concurrent Align traffic of the same
	// configuration. Shed chunks (ErrOverloaded) are re-submitted with
	// backoff and counted in the run's Shed/Retries. The coalescer must
	// belong to the same engine.
	Coalescer *Coalescer
}

// Overlapper is the public overlap subsystem: the BELLA pipeline (k-mer
// seeding, candidate detection, binning) over a shared Aligner engine's
// batched X-drop extension, producing PAF records. It is the workload the
// paper integrates LOGAN into (§V) — many-to-many long-read overlap — as
// a first-class API.
//
// An Overlapper is a thin stateless front end over its engine: it is safe
// for concurrent Run calls, and the engine keeps serving Align traffic
// concurrently (extension batches interleave with request batches on the
// same worker pools and devices). Closing the engine fails in-flight runs
// with ErrClosed; the Overlapper itself has nothing to close.
type Overlapper struct {
	eng  *Aligner
	coal *Coalescer
}

// NewOverlapper builds an overlap front end over the engine.
func NewOverlapper(eng *Aligner, opt OverlapperOptions) (*Overlapper, error) {
	if eng == nil {
		return nil, errors.New("logan: NewOverlapper requires an engine")
	}
	return &Overlapper{eng: eng, coal: opt.Coalescer}, nil
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
	if cfg.Traceback && o.coal != nil {
		return nil, ErrTracebackUnavailable
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
	if cfg.Traceback && o.coal != nil {
		return nil, ErrTracebackUnavailable
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	fr := seq.NewFastaReader(r)
	rs := genome.ReadSet{}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rec, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("logan: fasta: %w", err)
		}
		rs.Reads = append(rs.Reads, genome.Read{ID: len(rs.Reads), Seq: rec.Seq, Label: rec.Name})
		if cfg.OnProgress != nil {
			cfg.OnProgress(OverlapProgress{Stage: StageIngest, ReadsParsed: len(rs.Reads)})
		}
	}
	return o.run(ctx, rs, cfg, start)
}

// run executes the pipeline over an ingested read set.
func (o *Overlapper) run(ctx context.Context, rs genome.ReadSet, cfg OverlapConfig, start time.Time) (*OverlapResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var counters overlapCounters
	bcfg := cfg.bellaConfig()
	if cfg.OnProgress != nil {
		nReads := len(rs.Reads)
		bcfg.OnProgress = func(p bella.Progress) {
			cfg.OnProgress(OverlapProgress{
				Stage:           OverlapStage(p.Stage),
				ReadsParsed:     nReads,
				ReliableKmers:   p.ReliableKmers,
				CandidatePairs:  p.Candidates,
				ExtensionsDone:  p.PairsAligned,
				ExtensionsTotal: p.PairsTotal,
				Overlaps:        p.Overlaps,
				Shed:            counters.shed.Load(),
				Retries:         counters.retries.Load(),
			})
		}
	}
	var al bella.Aligner
	if o.coal != nil {
		al = &coalescedExtender{
			coal:     o.coal,
			counters: &counters,
			// Mirror the run-local counters into the engine registry so the
			// /metrics view sees overlap back-pressure across all runs.
			shedTotal:  o.eng.tele.Counter("logan_overlap_shed_total", "Overlap extension chunks shed by coalescer admission control."),
			retryTotal: o.eng.tele.Counter("logan_overlap_retries_total", "Re-submissions of shed overlap extension chunks."),
		}
	} else {
		al = &engineExtender{eng: o.eng}
	}
	res, err := bella.Run(ctx, rs, bcfg, al)
	if err != nil {
		return nil, err
	}
	recs := bella.PAFRecords(rs.Reads, res.Overlaps)
	out := &OverlapResult{
		Records: make([]OverlapRecord, len(recs)),
		Stats: OverlapStats{
			Reads:          len(rs.Reads),
			ReliableKmers:  res.Reliable,
			CandidatePairs: res.Candidates,
			MatrixNNZ:      res.NNZ,
			Cells:          res.Align.Cells,
			DeviceTime:     res.Align.DeviceTime,
			Times: OverlapStageTimes{
				Count: res.Times.Count, Prune: res.Times.Prune,
				Matrix: res.Times.Matrix, SpGEMM: res.Times.SpGEMM,
				Binning: res.Times.Binning, Alignment: res.Times.Alignment,
				Filter: res.Times.Filter,
			},
			Shed:    counters.shed.Load(),
			Retries: counters.retries.Load(),
		},
	}
	for i, r := range recs {
		// Structural conversion: OverlapRecord mirrors bella.PAFRecord
		// field for field, so a drifting field is a compile error, not a
		// silently dropped value.
		out.Records[i] = OverlapRecord(r)
	}
	out.Stats.WallTime = time.Since(start)
	return out, nil
}

// engineExtender feeds extension chunks straight onto the shared engine's
// backend (worker pools, devices, hybrid scheduler) and keeps the raw
// per-direction results, so the traceback post-pass can band itself.
type engineExtender struct {
	eng *Aligner
}

// Name identifies the aligner in reports.
func (e *engineExtender) Name() string { return "logan-engine" }

// AlignPairs dispatches one chunk through the engine's backend.
func (e *engineExtender) AlignPairs(ctx context.Context, pairs []seq.Pair, sc xdrop.Scoring, x int32) ([]xdrop.SeedResult, bella.AlignerStats, error) {
	start := time.Now()
	out := make([]xdrop.SeedResult, len(pairs))
	bst, err := e.eng.extendPrepared(ctx, pairs, out, xdrop.LinearScheme(sc), x)
	if err != nil {
		return nil, bella.AlignerStats{}, err
	}
	st := bella.AlignerStats{
		Pairs: len(pairs), Cells: bst.Cells,
		WallTime: time.Since(start), DeviceTime: bst.DeviceTime,
	}
	for i := range out {
		st.MaxBand = max(st.MaxBand, out[i].Left.MaxBand, out[i].Right.MaxBand)
	}
	return out, st, nil
}

// coalescedExtender routes extension chunks through a request Coalescer,
// merging overlap traffic with same-config Align requests. Chunks the
// admission control sheds are re-submitted with exponential backoff;
// every shed and retry is counted.
type coalescedExtender struct {
	coal     *Coalescer
	counters *overlapCounters
	// Registry mirrors of the run-local counters (lifetime totals).
	shedTotal, retryTotal *telemetry.Counter
}

// overlapCounters aggregates a run's shed/retry accounting across the
// extension goroutine and concurrent progress snapshots.
type overlapCounters struct {
	shed, retries atomic.Int64
}

// Name identifies the aligner in reports.
func (e *coalescedExtender) Name() string { return "logan-coalesced" }

// overlapMaxRetries bounds re-submissions of one shed chunk before the
// run fails with ErrOverloaded: sustained overload should fail the job,
// not wedge it.
const overlapMaxRetries = 10

// AlignPairs submits one chunk via the coalescer, retrying shed chunks.
func (e *coalescedExtender) AlignPairs(ctx context.Context, pairs []seq.Pair, sc xdrop.Scoring, x int32) ([]xdrop.SeedResult, bella.AlignerStats, error) {
	start := time.Now()
	// Extension chunks ride the bulk priority class: interactive /align
	// lanes are picked ahead of them under contention.
	ctx = withPriority(ctx, classBulk)
	lp := make([]Pair, len(pairs))
	for i := range pairs {
		lp[i] = Pair{
			Query: pairs[i].Query, Target: pairs[i].Target,
			SeedQ: pairs[i].SeedQPos, SeedT: pairs[i].SeedTPos, SeedLen: pairs[i].SeedLen,
		}
	}
	cfg := Config{X: x, Scoring: Scoring{mode: scoringLinear, linear: sc}}
	var (
		out []Alignment
		st  Stats
		err error
	)
	backoff := time.Millisecond
	for attempt := 0; ; attempt++ {
		out, st, err = e.coal.Align(ctx, lp, cfg)
		if !errors.Is(err, ErrOverloaded) {
			break
		}
		e.counters.shed.Add(1)
		e.shedTotal.Inc()
		if attempt == overlapMaxRetries {
			return nil, bella.AlignerStats{}, fmt.Errorf("logan: overlap extension chunk shed %d times: %w", attempt+1, err)
		}
		select {
		case <-ctx.Done():
			return nil, bella.AlignerStats{}, ctx.Err()
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, 100*time.Millisecond)
		e.counters.retries.Add(1)
		e.retryTotal.Inc()
	}
	if err != nil {
		return nil, bella.AlignerStats{}, err
	}
	res := make([]xdrop.SeedResult, len(out))
	for i, a := range out {
		res[i] = xdrop.SeedResult{
			Score:  a.Score,
			QBegin: a.QBegin, QEnd: a.QEnd,
			TBegin: a.TBegin, TEnd: a.TEnd,
		}
		// The public Alignment compresses the per-direction split away;
		// park the cell total on one side so SeedResult.Cells stays right.
		res[i].Left.Cells = a.Cells
	}
	ast := bella.AlignerStats{
		Pairs: st.Pairs, Cells: st.Cells,
		WallTime: time.Since(start), DeviceTime: st.DeviceTime,
	}
	return res, ast, nil
}
