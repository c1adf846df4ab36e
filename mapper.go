package logan

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"logan/internal/chain"
	"logan/internal/minidx"
	"logan/internal/par"
	"logan/internal/seq"
	"logan/internal/telemetry"
	"logan/internal/xdrop"
)

// ErrNoIndex reports a Map call on a Mapper that has neither built nor
// loaded a reference index yet.
var ErrNoIndex = errors.New("logan: mapper has no reference index (call Build or Load first)")

// IndexOptions parameterizes reference index construction, mirroring the
// minimizer sampling scheme: (w,k)-minimizers over the reference with
// high-occurrence masking. Zero fields select the defaults its Params
// rows declare; a negative MaxOccurrence disables masking.
type IndexOptions struct {
	K             int
	W             int
	MaxOccurrence int
}

// Params returns the index parameter table bound to o's fields.
func (o *IndexOptions) Params() Params {
	return Params{
		{name: "k", ptr: &o.K, def: minidx.DefaultK, zero: zeroAbsent, min: 1, max: seq.MaxK,
			doc: "minimizer k-mer length"},
		{name: "w", ptr: &o.W, def: minidx.DefaultW, zero: zeroAbsent, min: 1, max: 1 << 16,
			doc: "minimizer window: consecutive k-mers per sampled minimum"},
		{name: "maxOcc", ptr: &o.MaxOccurrence, def: minidx.DefaultMaxOccurrence, zero: zeroAbsent, min: math.MinInt32, max: math.MaxInt32,
			doc: "mask minimizers occurring more often than this across the reference (negative = no masking)"},
	}
}

// IndexStats describes a built or loaded reference index: its sampling
// parameters and the shape of the minimizer table, including the
// open-addressing occupancy exported as the logan_map_index_occupancy
// gauge.
type IndexStats = minidx.Stats

// MapConfig parameterizes one mapping run: chaining bounds, placement
// selection, and the X-drop extension configuration. The zero value is
// not valid; start from DefaultMapConfig. The numeric fields are the rows
// of Params, which declares each one's default, bounds and whether 0
// selects the default.
type MapConfig struct {
	// X is the X-drop termination threshold of the extension stage.
	X int32
	// Scoring is the extension scheme; mapping-quality estimation and the
	// match-count estimate are calibrated for linear DNA scoring, so only
	// LinearScoring configurations validate.
	Scoring Scoring
	// MaxGap bounds the query/target gap and diagonal drift between
	// chained anchors.
	MaxGap int32
	// MinChainScore drops chains scoring below it (negative disables the
	// floor).
	MinChainScore int32
	// MinChainAnchors drops chains with fewer anchors (negative disables
	// the floor).
	MinChainAnchors int
	// MaxSecondary caps reported secondary placements per primary locus
	// (0 reports primaries only; negative selects the default of 5).
	MaxSecondary int
	// BatchReads processes reads in batches of this size, with a
	// cancellation check and one batched extension submission per batch.
	BatchReads int
}

// defaultMapSecondaries is the per-primary secondary placement cap a
// negative MaxSecondary (the default) selects.
const defaultMapSecondaries = 5

// Params returns the mapping parameter table bound to c's fields.
func (c *MapConfig) Params() Params {
	return Params{
		{name: "x", ptr: &c.X, min: 0, max: math.MaxInt32,
			doc: "X-drop termination threshold of the extension stage"},
		{name: "maxGap", ptr: &c.MaxGap, def: chain.DefaultMaxGap, zero: zeroAbsent, min: 1, max: math.MaxInt32,
			doc: "largest query/target gap and diagonal drift between chained anchors"},
		{name: "minChainScore", ptr: &c.MinChainScore, def: chain.DefaultMinScore, zero: zeroAbsent, min: math.MinInt32, max: math.MaxInt32,
			doc: "drop chains scoring below this (negative = no floor)"},
		{name: "minChainAnchors", ptr: &c.MinChainAnchors, def: chain.DefaultMinAnchors, zero: zeroAbsent, min: math.MinInt32, max: math.MaxInt32,
			doc: "drop chains with fewer anchors (negative = no floor)"},
		{name: "maxSecondary", ptr: &c.MaxSecondary, def: -1, min: math.MinInt32, max: math.MaxInt32,
			doc: fmt.Sprintf("secondary placements reported per primary locus (0 = primaries only, negative = %d)", defaultMapSecondaries)},
		{name: "batchReads", server: true, ptr: &c.BatchReads, def: 512, zero: zeroAbsent, min: 1, max: 1 << 20,
			doc: "reads seeded, then extended in one engine submission, per batch"},
	}
}

// DefaultMapConfig returns the default mapping configuration with the
// paper's +1/-1/-1 scoring at the given X-drop threshold.
func DefaultMapConfig(x int32) MapConfig {
	c := MapConfig{Scoring: LinearScoring(1, -1, -1)}
	c.Params().defaults()
	c.X = x
	return c
}

// Validate rejects configurations the mapping pipeline cannot honor: a
// field outside its Params row's bounds, a non-linear scoring scheme, or
// scheme/X values the engine itself rejects.
func (c MapConfig) Validate() error {
	if err := c.Params().check(); err != nil {
		return fmt.Errorf("logan: mapping %w", err)
	}
	if c.Scoring.sch.Kind != xdrop.SchemeLinear {
		return fmt.Errorf("logan: mapping scoring must be linear (got %q): mapping quality and match estimates are calibrated for the match/mismatch/gap family", c.Scoring.Mode())
	}
	return Config{X: c.X, Scoring: c.Scoring}.Validate()
}

// MapStageTimes records measured wall time per mapping stage. Seed is
// the wall time of the parallel seeding stage (minimizer extraction,
// index lookup, chaining and selection, one worker per GOMAXPROCS), not
// the sum of its workers' busy time.
type MapStageTimes struct {
	Seed   time.Duration
	Extend time.Duration
}

// MapStats summarizes one mapping run.
type MapStats struct {
	// Reads is the ingested record count; Mapped of them produced at
	// least one placement.
	Reads, Mapped int
	// Anchors, Chains and Extensions count seeding hits, chained loci,
	// and X-drop extensions across the run.
	Anchors, Chains, Extensions int64
	// Cells is the DP work of the extension stage; DeviceTime its
	// modeled GPU share (zero on pure-CPU engines).
	Cells      int64
	DeviceTime time.Duration
	// Times is the per-stage breakdown; WallTime the run total including
	// ingestion.
	Times    MapStageTimes
	WallTime time.Duration
	// Shed/Retries count coalescer admission rejections of extension
	// batches and their re-submissions (coalescer-routed Mappers only).
	Shed, Retries int64
}

// MapResult is the outcome of one mapping run: PAF records grouped by
// read in input order (each read's primary placement first, secondaries
// after it in descending chain score) plus run statistics.
type MapResult struct {
	Records []OverlapRecord
	Stats   MapStats
}

// MapperOptions tunes how a Mapper submits extension work.
type MapperOptions struct {
	// Coalescer, when non-nil, routes extension batches through the given
	// request coalescer's bulk lanes instead of straight onto the
	// engine's backend, so mapping work is scheduled behind concurrent
	// Align traffic under one admission policy; results are identical
	// either way. The coalescer must belong to the same engine.
	Coalescer *Coalescer
}

// Mapper is the public reference mapping subsystem: a minimizer index
// over a reference set (Build/Load/Save) and a minimap2-style
// minimize → chain → extend pipeline (Map) whose extension stage is the
// shared Aligner engine's batched X-drop: each read batch's pairs go to
// the same extend path the Overlapper uses, into result buffers the run
// reuses batch to batch. The index is swapped atomically, so Map calls
// may run concurrently with Build/Load; each run uses the index installed
// when it started.
type Mapper struct {
	eng  *Aligner
	path extendPath

	mu  sync.RWMutex
	idx *minidx.Index

	// Run counters (lifetime totals, exported via the engine registry).
	mReads      *telemetry.Counter
	mMapped     *telemetry.Counter
	mAnchors    *telemetry.Counter
	mChains     *telemetry.Counter
	mExtensions *telemetry.Counter
	mRecords    *telemetry.Counter
	// Index shape gauges, refreshed on every Build/Load.
	gRefs, gBases, gKept, gOccupancy *telemetry.Gauge
}

// NewMapper builds a mapping front end over the engine, registering the
// logan_map_* instruments on the engine's telemetry registry.
func NewMapper(eng *Aligner, opt MapperOptions) (*Mapper, error) {
	if eng == nil {
		return nil, errors.New("logan: NewMapper requires an engine")
	}
	t := eng.tele
	return &Mapper{
		eng:  eng,
		path: newExtendPath(eng, opt.Coalescer, "map", "mapping extension batches"),

		mReads:      t.Counter("logan_map_reads_total", "Reads processed by the mapping pipeline."),
		mMapped:     t.Counter("logan_map_reads_mapped_total", "Reads that produced at least one placement."),
		mAnchors:    t.Counter("logan_map_anchors_total", "Minimizer anchors collected across mapped reads."),
		mChains:     t.Counter("logan_map_chains_total", "Colinear chains surviving score/anchor floors."),
		mExtensions: t.Counter("logan_map_extensions_total", "X-drop extensions of selected chains."),
		mRecords:    t.Counter("logan_map_records_total", "PAF records emitted by the mapping pipeline."),
		gRefs:       t.Gauge("logan_map_index_refs", "Reference sequences in the loaded minimizer index."),
		gBases:      t.Gauge("logan_map_index_bases", "Reference bases in the loaded minimizer index."),
		gKept:       t.Gauge("logan_map_index_minimizers", "Minimizer positions stored in the loaded index (after masking)."),
		gOccupancy:  t.Gauge("logan_map_index_occupancy", "Open-addressing table occupancy of the loaded index."),
	}, nil
}

// Engine returns the engine the Mapper extends on.
func (m *Mapper) Engine() *Aligner { return m.eng }

// setIndex installs a new index and refreshes the index gauges.
func (m *Mapper) setIndex(x *minidx.Index) IndexStats {
	m.mu.Lock()
	m.idx = x
	m.mu.Unlock()
	st := x.Stats()
	m.gRefs.Set(float64(st.Refs))
	m.gBases.Set(float64(st.Bases))
	m.gKept.Set(float64(st.Kept))
	m.gOccupancy.Set(st.Occupancy)
	return st
}

// index returns the installed index, or nil.
func (m *Mapper) index() *minidx.Index {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.idx
}

// Ready reports whether an index is installed.
func (m *Mapper) Ready() bool { return m.index() != nil }

// IndexStats returns the installed index's statistics; ok is false when
// no index is installed yet.
func (m *Mapper) IndexStats() (st IndexStats, ok bool) {
	x := m.index()
	if x == nil {
		return IndexStats{}, false
	}
	return x.Stats(), true
}

// Build constructs a reference index from streamed FASTA input and
// installs it as the Mapper's index. Reference bases are normalized the
// same way the FASTA ingestion path normalizes reads (lower-case and
// IUPAC codes accepted); N bases never seed anchors and are stored as A,
// matching the engine's 2-bit packing. Cancelling ctx abandons the build
// between records.
func (m *Mapper) Build(ctx context.Context, r io.Reader, opt IndexOptions) (IndexStats, error) {
	ps := opt.Params()
	if err := ps.check(); err != nil {
		return IndexStats{}, fmt.Errorf("logan: index %w", err)
	}
	ps.resolve()
	if ctx == nil {
		ctx = context.Background()
	}
	var refs []minidx.Ref
	err := readFasta(ctx, r, "index fasta", func(rec seq.Record) {
		refs = append(refs, minidx.Ref{Name: rec.Name, Seq: rec.Seq})
	})
	if err != nil {
		return IndexStats{}, err
	}
	x, err := minidx.Build(refs, minidx.Options{K: opt.K, W: opt.W, MaxOccurrence: opt.MaxOccurrence})
	if err != nil {
		return IndexStats{}, fmt.Errorf("logan: index build: %w", err)
	}
	return m.setIndex(x), nil
}

// Load installs an index previously written by Save, verifying its CRC.
func (m *Mapper) Load(r io.Reader) (IndexStats, error) {
	x, err := minidx.Load(r)
	if err != nil {
		return IndexStats{}, fmt.Errorf("logan: index load: %w", err)
	}
	return m.setIndex(x), nil
}

// Save writes the installed index in the versioned binary format;
// Load(Save(x)) is bit-identical to x.
func (m *Mapper) Save(w io.Writer) error {
	x := m.index()
	if x == nil {
		return ErrNoIndex
	}
	return x.Save(w)
}

// mapJob is one selected chain queued for X-drop extension.
type mapJob struct {
	readIdx int
	refID   int32
	rev     bool
	primary bool
	mapq    int
	pair    seq.Pair
	tOff    int // target window offset into the reference
}

// Map places reads against the installed index. Records come back
// grouped by read in input order, each read's primary placement first.
// Sequence bytes are aliased during the run, not copied; do not mutate
// them until Map returns. Cancelling ctx abandons the run at the next
// batch boundary.
func (m *Mapper) Map(ctx context.Context, reads []Read, cfg MapConfig) (*MapResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	rs := make([]seq.Seq, len(reads))
	for i, r := range reads {
		s, err := seq.FromBytes(r.Seq)
		if err != nil {
			return nil, fmt.Errorf("logan: read %d (%s): %w", i, r.Name, err)
		}
		rs[i] = s
	}
	return m.run(ctx, reads, rs, cfg, start)
}

// MapFasta is Map over streamed FASTA input. The parse enforces no size
// limits; callers admitting untrusted input should wrap r with an
// io.LimitReader.
func (m *Mapper) MapFasta(ctx context.Context, r io.Reader, cfg MapConfig) (*MapResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	var reads []Read
	var rs []seq.Seq
	err := readFasta(ctx, r, "fasta", func(rec seq.Record) {
		reads = append(reads, Read{Name: rec.Name, Seq: rec.Seq})
		rs = append(rs, rec.Seq)
	})
	if err != nil {
		return nil, err
	}
	return m.run(ctx, reads, rs, cfg, start)
}

// run executes the mapping pipeline over ingested reads.
func (m *Mapper) run(ctx context.Context, reads []Read, rs []seq.Seq, cfg MapConfig, start time.Time) (*MapResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	idx := m.index()
	if idx == nil {
		return nil, ErrNoIndex
	}
	cfg.Params().resolve()
	batch := cfg.BatchReads
	maxSec := cfg.MaxSecondary
	if maxSec < 0 {
		maxSec = defaultMapSecondaries
	}
	chOpt := chain.Options{
		MaxGap:     cfg.MaxGap,
		MinScore:   cfg.MinChainScore,
		MinAnchors: cfg.MinChainAnchors,
	}

	var n shedCount
	extend := m.path.retrying(&n)
	sch := cfg.Scoring.sch

	res := &MapResult{}
	st := &res.Stats
	st.Reads = len(reads)
	seeders := make([]mapSeeder, par.Workers(0))
	for w := range seeders {
		seeders[w] = mapSeeder{idx: idx, opt: chOpt, x: cfg.X, maxSec: maxSec}
	}
	// One engine submission per batch, into buffers reused batch to batch.
	var (
		pairs []seq.Pair
		out   []xdrop.SeedResult
	)
	for lo := 0; lo < len(reads); lo += batch {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := min(lo+batch, len(reads))
		seedStart := time.Now()
		jobs := seedBatch(seeders, rs, lo, hi)
		st.Times.Seed += time.Since(seedStart)
		if len(jobs) == 0 {
			continue
		}
		extStart := time.Now()
		pairs = slices.Grow(pairs[:0], len(jobs))
		for _, j := range jobs {
			pairs = append(pairs, j.pair)
		}
		out = slices.Grow(out[:0], len(jobs))[:len(jobs)]
		bst, err := extend(ctx, pairs, out, sch, cfg.X)
		if err != nil {
			return nil, err
		}
		st.Times.Extend += time.Since(extStart)
		st.Extensions += int64(len(jobs))
		st.Cells += bst.Cells
		st.DeviceTime += bst.DeviceTime

		mappedRead := -1
		for i, j := range jobs {
			rec, ok := mapRecord(reads, rs, idx, j, out[i])
			if !ok {
				continue
			}
			res.Records = append(res.Records, rec)
			if j.readIdx != mappedRead {
				mappedRead = j.readIdx
				st.Mapped++
			}
		}
	}
	for _, sd := range seeders {
		st.Anchors += sd.anchors
		st.Chains += sd.chains
	}
	st.Shed = n.shed.Load()
	st.Retries = n.retries.Load()
	st.WallTime = time.Since(start)

	m.mReads.Add(float64(st.Reads))
	m.mMapped.Add(float64(st.Mapped))
	m.mAnchors.Add(float64(st.Anchors))
	m.mChains.Add(float64(st.Chains))
	m.mExtensions.Add(float64(st.Extensions))
	m.mRecords.Add(float64(len(res.Records)))
	return res, nil
}

// seedBatch seeds reads [lo,hi) on up to one goroutine per seeder, each
// over a contiguous range of reads, and returns the ranges' jobs
// concatenated in read order: the same jobs, in the same order, whatever
// the number of seeders.
func seedBatch(seeders []mapSeeder, rs []seq.Seq, lo, hi int) []mapJob {
	parts := make([][]mapJob, min(len(seeders), hi-lo))
	par.Range(hi-lo, len(parts), func(w, a, b int) {
		for i := lo + a; i < lo+b; i++ {
			parts[w] = seeders[w].seedRead(parts[w], i, rs[i])
		}
	})
	return slices.Concat(parts...)
}

// mapSeeder carries one seeding worker's state for a run: minimizer
// extraction, index lookup, per-(reference,strand) chaining, and
// placement selection, emitting extension jobs. Its counters are the
// worker's share of the run's totals.
type mapSeeder struct {
	idx    *minidx.Index
	opt    chain.Options
	x      int32
	maxSec int

	anchors int64
	chains  int64

	mins []minidx.Minimizer // reused scratch
}

// seedRead appends the extension jobs of one read to jobs.
func (s *mapSeeder) seedRead(jobs []mapJob, readIdx int, rd seq.Seq) []mapJob {
	k := s.idx.K()
	qlen := len(rd)
	if qlen < k {
		return jobs
	}
	s.mins = minidx.Extract(s.mins[:0], rd, k, s.idx.W())
	// Group anchors by (reference, relative strand). Group keys are
	// iterated in sorted order below so chaining and selection stay
	// deterministic.
	groups := map[uint64][]chain.Anchor{}
	for _, mm := range s.mins {
		for _, hit := range s.idx.Lookup(mm.Hash) {
			ref, tpos, trev := minidx.UnpackPos(hit)
			rev := mm.Rev != trev // relative strand
			qpos := mm.Pos
			if rev {
				// Anchor coordinates on the reverse-complemented read, so
				// chained anchors ascend in both coordinates.
				qpos = int32(qlen-k) - mm.Pos
			}
			key := uint64(uint32(ref)) << 1
			if rev {
				key |= 1
			}
			groups[key] = append(groups[key], chain.Anchor{QPos: qpos, TPos: tpos, Len: int32(k)})
		}
	}
	keys := make([]uint64, 0, len(groups))
	for key, anchors := range groups {
		s.anchors += int64(len(anchors))
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })

	var cands []chain.Candidate
	found := make(map[uint64][]chain.Chain, len(groups))
	for _, key := range keys {
		chains := chain.Find(groups[key], s.opt)
		if len(chains) == 0 {
			continue
		}
		found[key] = chains
		s.chains += int64(len(chains))
		rev := key&1 == 1
		for i, ch := range chains {
			qs, qe := ch.QStart, ch.QEnd
			if rev {
				// Compare loci in forward-read coordinates.
				qs, qe = int32(qlen)-ch.QEnd, int32(qlen)-ch.QStart
			}
			cands = append(cands, chain.Candidate{
				Group: int(key), Ordinal: i,
				Score: ch.Score, QStart: qs, QEnd: qe,
				Anchors: len(ch.Anchors),
			})
		}
	}
	if len(cands) == 0 {
		return jobs
	}
	var rc seq.Seq // lazily computed reverse complement
	for _, pl := range chain.Select(cands, s.maxSec) {
		key := uint64(pl.Group)
		ch := found[key][pl.Ordinal]
		ref := s.idx.Refs()[key>>1]
		rev := key&1 == 1
		query := rd
		if rev {
			if rc == nil {
				rc = rd.RevComp()
			}
			query = rc
		}
		an, ok := seedAnchor(ch, query, ref.Seq, k)
		if !ok {
			continue // every anchor was a hash collision; drop the chain
		}
		// Window the target around the chain so extension never copies the
		// whole reference: X-drop can move at most X bases past the
		// query's reach under linear scoring, plus slack.
		leftNeed := int(an.QPos) + int(s.x) + 64
		rightNeed := qlen - int(an.QPos) + int(s.x) + 64
		t0 := max(int(an.TPos)-leftNeed, 0)
		t1 := min(int(an.TPos)+k+rightNeed, len(ref.Seq))
		jobs = append(jobs, mapJob{
			readIdx: readIdx,
			refID:   int32(key >> 1),
			rev:     rev,
			primary: pl.Primary,
			mapq:    pl.MapQ,
			tOff:    t0,
			pair: seq.Pair{
				Query: query, Target: ref.Seq[t0:t1:t1],
				SeedQPos: int(an.QPos), SeedTPos: int(an.TPos) - t0,
				SeedLen: k, ID: readIdx,
			},
		})
	}
	return jobs
}

// seedAnchor picks the extension seed from a chain: the median anchor,
// falling back outward when the k-mer bytes disagree (a minimizer hash
// collision or an N normalized away at build time).
func seedAnchor(ch chain.Chain, query, target seq.Seq, k int) (chain.Anchor, bool) {
	n := len(ch.Anchors)
	mid := n / 2
	for d := 0; d < n; d++ {
		var i int
		if d%2 == 0 {
			i = mid + d/2
		} else {
			i = mid - (d+1)/2
		}
		if i < 0 || i >= n {
			continue
		}
		an := ch.Anchors[i]
		q, t := int(an.QPos), int(an.TPos)
		if q < 0 || t < 0 || q+k > len(query) || t+k > len(target) {
			continue
		}
		if string(query[q:q+k]) == string(target[t:t+k]) {
			return an, true
		}
	}
	return chain.Anchor{}, false
}

// mapRecord converts one extension result into its PAF record; ok is
// false for empty alignments (the extension never cleared the seed).
func mapRecord(reads []Read, rs []seq.Seq, idx *minidx.Index, j mapJob, a xdrop.SeedResult) (OverlapRecord, bool) {
	if a.QEnd <= a.QBegin || a.TEnd <= a.TBegin {
		return OverlapRecord{}, false
	}
	qlen := len(rs[j.readIdx])
	ref := idx.Refs()[j.refID]
	rec := OverlapRecord{
		QName: reads[j.readIdx].Name, QLen: qlen,
		QStart: a.QBegin, QEnd: a.QEnd,
		Strand: '+',
		TName:  ref.Name, TLen: len(ref.Seq),
		TStart: j.tOff + a.TBegin, TEnd: j.tOff + a.TEnd,
		Score:  a.Score,
		QIndex: j.readIdx, TIndex: int(j.refID),
	}
	if j.rev {
		rec.Strand = '-'
		// The query was reverse-complemented; report read coordinates on
		// the forward strand (target coordinates are forward already).
		rec.QStart = qlen - a.QEnd
		rec.QEnd = qlen - a.QBegin
	}
	rec.BlockLen = max(rec.QEnd-rec.QStart, rec.TEnd-rec.TStart)
	// Estimate matches from the +1/-1/-1 score, as the overlap path does:
	// score = matches - errors, block ~ matches + errors.
	rec.Matches = (rec.BlockLen + int(a.Score)) / 2
	if rec.Matches < 0 {
		rec.Matches = 0
	}
	if rec.Matches > rec.BlockLen {
		rec.Matches = rec.BlockLen
	}
	if j.primary {
		rec.MapQ = j.mapq
	} else {
		rec.MapQ = 0
	}
	return rec, true
}
