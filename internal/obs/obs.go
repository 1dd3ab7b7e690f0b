// Package obs is the pipeline's zero-dependency observability layer:
// a span tracer, named counters, and structured logging, all carried
// through context.Context. Every entry point is nil-safe — when no
// tracer/metrics/logger is attached to the context, Start returns a nil
// span and Add/Logger degrade to no-ops — so instrumented code pays only
// a context lookup when observation is off. The analysis packages bump
// counters and open spans; cmd/nadroid and internal/server attach
// collectors and export what accumulated (Chrome trace JSON, indented
// span trees, nadroid_pipeline_* metric families).
package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key string
	Val interface{}
}

// KV builds an Attr.
func KV(key string, val interface{}) Attr { return Attr{Key: key, Val: val} }

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	metricsKey
	loggerKey
)

// DefaultSpanLimit bounds how many spans a tracer records before it
// starts dropping (schedule exploration can open one span per executed
// schedule; an unbounded tracer would turn a big validation run into a
// memory leak).
const DefaultSpanLimit = 50_000

// Tracer records a forest of spans. It is safe for concurrent use; a
// server attaches one tracer per job.
type Tracer struct {
	mu      sync.Mutex
	roots   []*Span
	count   int
	limit   int
	dropped int
}

// NewTracer returns an empty tracer bounded to DefaultSpanLimit spans.
func NewTracer() *Tracer { return &Tracer{limit: DefaultSpanLimit} }

// SetLimit adjusts the span budget (minimum 1).
func (t *Tracer) SetLimit(n int) {
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	t.limit = n
	t.mu.Unlock()
}

// Dropped reports how many spans were discarded over the budget.
func (t *Tracer) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SpanCount reports how many spans were recorded.
func (t *Tracer) SpanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Roots returns the top-level spans in start order.
func (t *Tracer) Roots() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// Span is one timed region of the pipeline. All methods are nil-safe so
// call sites never need to check whether tracing is on.
type Span struct {
	tracer   *Tracer
	parent   *Span
	name     string
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
}

// WithTracer attaches a tracer to the context.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the attached tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// Start opens a span named name under the context's current span (or as
// a new root) and returns a derived context in which the new span is
// current. With no tracer attached — or with the tracer's span budget
// exhausted — it returns ctx unchanged and a nil span.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey).(*Span)
	s := &Span{tracer: t, parent: parent, name: name, start: time.Now(), attrs: attrs}
	t.mu.Lock()
	if t.count >= t.limit {
		t.dropped++
		t.mu.Unlock()
		return ctx, nil
	}
	t.count++
	if parent != nil {
		parent.children = append(parent.children, s)
	} else {
		t.roots = append(t.roots, s)
	}
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey, s), s
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.tracer.mu.Unlock()
}

// SetAttr annotates the span after Start.
func (s *Span) SetAttr(key string, val interface{}) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, val})
	s.tracer.mu.Unlock()
}

// Name returns the span name ("" for nil spans).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns end-start; for an unfinished span it measures up to
// now.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Children returns the sub-spans in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Attrs returns the span's annotations.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.tracer.mu.Lock()
	defer s.tracer.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Metrics is a named counter set. Analysis stages Add into it through
// the context; collectors Snapshot it. Counter names use
// prometheus-style "name" or `name{label="value"}` keys so the server
// can export them verbatim as nadroid_pipeline_* families.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics { return &Metrics{counters: make(map[string]int64)} }

// WithMetrics attaches a counter set to the context.
func WithMetrics(ctx context.Context, m *Metrics) context.Context {
	return context.WithValue(ctx, metricsKey, m)
}

// MetricsFrom returns the attached counter set, or nil.
func MetricsFrom(ctx context.Context) *Metrics {
	m, _ := ctx.Value(metricsKey).(*Metrics)
	return m
}

// Add bumps the named counter on the context's metric set (no-op when
// none is attached).
func Add(ctx context.Context, name string, delta int64) {
	if m := MetricsFrom(ctx); m != nil {
		m.Add(name, delta)
	}
}

// Add bumps a counter directly.
func (m *Metrics) Add(name string, delta int64) {
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Get reads one counter.
func (m *Metrics) Get(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Snapshot copies the counter map.
func (m *Metrics) Snapshot() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.counters))
	for k, v := range m.counters {
		out[k] = v
	}
	return out
}

// Names returns the counter names, sorted.
func (m *Metrics) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.counters))
	for k := range m.counters {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
