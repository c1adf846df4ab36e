// Package telemetry is the repository's dependency-free metrics spine: a
// registry of counters, gauges and bounded-bucket latency histograms plus
// a lightweight per-request trace context, shared by every layer of the
// serving stack (engine, backends, coalescer, overlap pipeline, HTTP
// front end). One registry is the single source of truth behind both the
// Prometheus-text GET /metrics endpoint and the JSON /statz view in
// cmd/logan-serve, so the two can never disagree.
//
// Design constraints, in order:
//
//   - Observation is lock-free on the hot path: counters and gauges are
//     single atomics, histogram observation is two atomic adds plus a
//     branchless-ish bucket scan over a small fixed bound slice. No
//     allocation ever happens on observe.
//   - Registration is get-or-create and idempotent: asking for the same
//     (name, labels) series returns the same instrument, so independent
//     layers can share series without plumbing pointers around.
//   - Rendering and snapshotting are rare-path: they take the registry
//     lock, read every atomic once, and hand back an immutable Snapshot
//     that both the Prometheus writer and JSON views consume.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind is the metric family type, following the Prometheus data model.
type Kind int

// The supported metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Label is one name="value" pair of a series. Series identity is the
// metric name plus the ordered label set.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing float64. The float representation
// keeps one instrument type for both event counts and accumulated
// seconds; integral values render without a decimal point.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter by v (v must be >= 0; negative deltas are
// ignored rather than corrupting monotonicity).
func (c *Counter) Add(v float64) {
	if v < 0 || v != v { // negative or NaN
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an instantaneous float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by v (negative to decrease).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// ObserveEWMA folds a sample into the gauge as an exponentially weighted
// moving average with the given alpha in (0, 1]. The first sample (gauge
// still exactly zero) is stored directly so the average does not have to
// climb out of the zero well.
func (g *Gauge) ObserveEWMA(sample, alpha float64) {
	if sample != sample { // NaN
		return
	}
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		next := sample
		if cur != 0 {
			next = cur + alpha*(sample-cur)
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Histogram is a fixed-bound bucket latency histogram: observations are
// counted into the first bucket whose upper bound is >= the value
// (seconds), with an implicit +Inf bucket, plus a running sum and count.
// Bucket counts are non-cumulative internally and cumulated at render
// time, which keeps Observe to two atomic adds.
type Histogram struct {
	bounds []float64 // sorted upper bounds, excluding +Inf
	counts []atomic.Int64
	sumNS  atomic.Int64 // sum in nanoseconds-as-int64 of seconds*1e9
	count  atomic.Int64
}

// Observe records one value in seconds.
func (h *Histogram) Observe(seconds float64) {
	if seconds != seconds || seconds < 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, seconds)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(seconds * 1e9))
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values in seconds.
func (h *Histogram) Sum() float64 { return float64(h.sumNS.Load()) / 1e9 }

// DefaultLatencyBounds are the stage-latency bucket bounds in seconds:
// 100µs to 10s, roughly exponential, 16 buckets plus +Inf. They cover
// everything from a sub-millisecond coalescer queue wait to a multi-
// second large-X kernel batch.
func DefaultLatencyBounds() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
		0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// series is one registered instrument: its identity and its storage
// (exactly one of counter/gauge/gaugeFn/hist is non-nil).
type series struct {
	labels  []Label
	key     string
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family groups every series of one metric name under a single kind and
// help string, the Prometheus invariant (# TYPE appears once per name).
type family struct {
	name   string
	help   string
	kind   Kind
	order  []*series
	byKey  map[string]*series
	bounds []float64 // histogram families: shared bucket bounds
}

// Registry is a set of metric families. Get-or-create registration is
// concurrency-safe; observation on returned instruments is lock-free.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// labelKey renders the series identity of a label set.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	k := ""
	for _, l := range labels {
		k += l.Key + "\x00" + l.Value + "\x00"
	}
	return k
}

// lookup returns the family and series for (name, labels), creating
// either as needed. kind and help apply only on first creation of the
// family; a kind mismatch on an existing family panics — it is a
// programming error that would corrupt the exposition format.
func (r *Registry) lookup(name, help string, kind Kind, labels []Label, bounds []float64) *series {
	key := labelKey(labels)

	r.mu.RLock()
	f := r.byName[name]
	if f != nil {
		s := f.byKey[key]
		if s != nil && f.kind == kind {
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f = r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byKey: map[string]*series{}, bounds: bounds}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %v, was %v", name, kind, f.kind))
	}
	s := f.byKey[key]
	if s == nil {
		s = &series{labels: append([]Label(nil), labels...), key: key}
		switch kind {
		case KindCounter:
			s.counter = &Counter{}
		case KindGauge:
			s.gauge = &Gauge{}
		case KindHistogram:
			b := f.bounds
			if b == nil {
				b = bounds
				f.bounds = b
			}
			s.hist = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		}
		f.byKey[key] = s
		f.order = append(f.order, s)
	}
	return s
}

// Counter returns the counter series (name, labels), registering it on
// first use with the given help text.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, KindCounter, labels, nil).counter
}

// Gauge returns the gauge series (name, labels), registering it on first
// use with the given help text.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, KindGauge, labels, nil)
	if s.gauge == nil {
		panic(fmt.Sprintf("telemetry: gauge %q already registered as a gauge func", name))
	}
	return s.gauge
}

// GaugeFunc registers a gauge series whose value is computed by fn at
// snapshot time — the natural shape for queue-depth style gauges whose
// truth lives behind someone else's mutex. Re-registering the same series
// replaces the function (the latest owner wins).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, KindGauge, labels, nil)
	r.mu.Lock()
	s.gauge = nil
	s.gaugeFn = fn
	r.mu.Unlock()
}

// Histogram returns the histogram series (name, labels), registering it
// on first use with the given bucket upper bounds (nil selects
// DefaultLatencyBounds). All series of one histogram family share the
// first registration's bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds()
	}
	return r.lookup(name, help, KindHistogram, labels, bounds).hist
}
