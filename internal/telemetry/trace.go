package telemetry

import (
	"context"
	"time"
)

// The canonical pipeline stages a request (or merged batch) passes
// through on the serve path. Every layer observes its own stage into the
// shared stage-latency histogram family; a request-scoped Trace
// additionally collects the spans it personally experienced.
const (
	// StageAdmit is request admission: decode, validation, per-pair
	// ingest/conversion — everything before the work may queue.
	StageAdmit = "admit"
	// StageCoalesceWait is the time a request spent queued in the
	// coalescer before its merged batch flushed.
	StageCoalesceWait = "coalesce_wait"
	// StagePartition is the scheduler split of a batch across backend
	// workers (capacity estimation, LPT partition, shard gather).
	StagePartition = "partition"
	// StageKernel is backend execution: the X-drop kernel work itself.
	StageKernel = "kernel"
	// StageScatter is result conversion and distribution back to the
	// per-request callers.
	StageScatter = "scatter"
	// StageShed marks the rejection point of a shed (429) request: not
	// part of the happy-path pipeline (and so absent from StageNames),
	// it closes the trace of a rejected request so the X-Logan-Trace
	// header shows where admission control stopped it.
	StageShed = "shed"
)

// StageNames lists the canonical stages in pipeline order.
func StageNames() []string {
	return []string{StageAdmit, StageCoalesceWait, StagePartition, StageKernel, StageScatter}
}

// Stages is the per-stage latency histogram family of one registry:
// get-or-create views over `name{stage="..."}` series. Layers share one
// family by constructing Stages over the same registry with the same
// metric name.
type Stages struct {
	reg  *Registry
	name string
	help string
	// hot path: the five canonical stages resolved once at construction;
	// other stage names fall back to a registry lookup.
	admit, wait, partition, kernel, scatter *Histogram
}

// NewStages binds (and on first use registers) the stage-latency
// histogram family `name` in r, pre-resolving the canonical stages.
func NewStages(r *Registry, name, help string) *Stages {
	s := &Stages{reg: r, name: name, help: help}
	s.admit = r.Histogram(name, help, nil, L("stage", StageAdmit))
	s.wait = r.Histogram(name, help, nil, L("stage", StageCoalesceWait))
	s.partition = r.Histogram(name, help, nil, L("stage", StagePartition))
	s.kernel = r.Histogram(name, help, nil, L("stage", StageKernel))
	s.scatter = r.Histogram(name, help, nil, L("stage", StageScatter))
	return s
}

// hist resolves a stage's histogram.
func (s *Stages) hist(stage string) *Histogram {
	switch stage {
	case StageAdmit:
		return s.admit
	case StageCoalesceWait:
		return s.wait
	case StagePartition:
		return s.partition
	case StageKernel:
		return s.kernel
	case StageScatter:
		return s.scatter
	default:
		return s.reg.Histogram(s.name, s.help, nil, L("stage", stage))
	}
}

// Observe records one stage duration into the family.
func (s *Stages) Observe(stage string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.hist(stage).Observe(d.Seconds())
}

// Span is one recorded stage duration of a Trace.
type Span struct {
	Stage string
	D     time.Duration
}

// Trace is a per-request trace context: it observes stage durations into
// the shared Stages family and keeps the request's own spans for
// rendering (e.g. an X-Logan-Trace response header). A Trace is owned by
// one request; spans recorded for it by another goroutine (the coalescer
// flusher stamping queue wait and batch stages) happen strictly before
// the result is delivered to the owner, so reads after delivery are
// ordered by the channel receive and need no lock.
type Trace struct {
	stages *Stages
	mark   time.Time
	spans  []Span
}

// StartTrace begins a trace whose step clock starts now.
func (s *Stages) StartTrace() *Trace {
	return &Trace{stages: s, mark: time.Now(), spans: make([]Span, 0, 8)}
}

// Observe records an explicitly measured stage duration into the trace
// and the underlying histogram family. Nil-safe: a nil Trace only skips
// the per-request span, so call sites need no guard when tracing is off
// — they observe the histogram family directly instead.
func (t *Trace) Observe(stage string, d time.Duration) {
	if t == nil {
		return
	}
	t.stages.Observe(stage, d)
	t.spans = append(t.spans, Span{Stage: stage, D: d})
}

// AddSpan appends a span to the trace WITHOUT observing the histogram
// family. It exists for shared work: when a merged batch's stages were
// already observed once (batch-scoped), each rider request copies the
// spans onto its own trace span-only, so the histograms count the batch
// once while every request's trace still shows the full pipeline.
// Nil-safe.
func (t *Trace) AddSpan(stage string, d time.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{Stage: stage, D: d})
}

// Step records the time since the previous Step (or StartTrace) as the
// given stage and resets the step clock. Nil-safe.
func (t *Trace) Step(stage string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.Observe(stage, now.Sub(t.mark))
	t.mark = now
}

// Spans returns the recorded spans in order. The caller must not retain
// the slice beyond the request.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// traceKeyT is the context key type for WithTrace.
type traceKeyT struct{}

// WithTrace attaches a request trace to the context, letting downstream
// layers (coalescer, engine) stamp their stages onto the request.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKeyT{}, t)
}

// TraceFrom extracts the request trace, or nil — every Trace method is
// nil-safe, so callers use the result unconditionally.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKeyT{}).(*Trace)
	return t
}
