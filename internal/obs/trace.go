// Package obs is the serving stack's observability layer: Dapper-style
// in-process tracing with cross-hop propagation, the Prometheus text
// exposition (lock-free histograms and a scrape-time emitter for counters
// and gauges; no other package spells the format), structured logging
// defaults on log/slog, a ring-buffer slow-query log, and build
// identification.
//
// The pieces are deliberately dependency-free and nil-tolerant: every
// component accepts a nil *Tracer, *Histogram, *SlowLog or Registry and
// degrades to a no-op, so library code can instrument unconditionally and
// let binaries decide what to wire.
//
// # Trace propagation
//
// A trace is identified by a 64-bit trace ID; each hop within it is a span
// with its own 64-bit span ID and a parent span ID. The context travels
// between processes in the X-Cpnn-Trace header:
//
//	X-Cpnn-Trace: <16 hex trace id>-<16 hex span id>
//
// The server ingress parses (or mints) the context, the shard router forks
// one child span per member Bound/Gather/Apply hop and forwards the child's
// context on the outgoing wire request, and the replica follower records
// replay spans under follower-local traces. Completed spans land in a
// bounded in-memory Tracer served at GET /debug/traces.
//
// Recording is head-sampled: a request carrying X-Cpnn-Trace is always
// recorded end to end (the decision rides the SpanContext.Sampled bit), and
// ingresses additionally record a small fraction of headerless requests so
// the debug ring stays populated at negligible steady-state cost.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// TraceHeader carries the span context between processes.
const TraceHeader = "X-Cpnn-Trace"

// SpanContext identifies one position in a distributed trace.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
	// Sampled is the head-based recording decision: spans are recorded (and
	// the context forwarded on the wire) only under a sampled parent. An
	// explicit X-Cpnn-Trace header always samples — the caller asked for the
	// trace — while ingresses sample a fraction of headerless requests so
	// /debug/traces stays populated without taxing every request.
	Sampled bool
}

// Valid reports whether the context names a real trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 && sc.SpanID != 0 }

// Header renders the context in X-Cpnn-Trace wire form.
func (sc SpanContext) Header() string {
	return fmt.Sprintf("%016x-%016x", sc.TraceID, sc.SpanID)
}

// TraceHex is the trace ID as 16 lowercase hex digits — the form logs,
// slowlog entries and /debug/traces use.
func (sc SpanContext) TraceHex() string { return fmt.Sprintf("%016x", sc.TraceID) }

// ParseHeader decodes an X-Cpnn-Trace value. A malformed or absent value
// yields ok=false; callers then mint a fresh trace.
func ParseHeader(s string) (SpanContext, bool) {
	if len(s) != 33 || s[16] != '-' {
		return SpanContext{}, false
	}
	tid, err := strconv.ParseUint(s[:16], 16, 64)
	if err != nil {
		return SpanContext{}, false
	}
	sid, err := strconv.ParseUint(s[17:], 16, 64)
	if err != nil {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: tid, SpanID: sid, Sampled: true}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// NewUnsampledContext mints a valid span context with recording off: IDs
// for log/slowlog correlation, no span storage anywhere downstream.
func NewUnsampledContext() SpanContext {
	return SpanContext{TraceID: newID(), SpanID: newID()}
}

// newID returns a non-zero random 64-bit ID. IDs need no coordination —
// collisions merely merge two traces in the debug view.
func newID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

type spanCtxKey struct{}

// ContextWithSpan attaches a span context for downstream hops to adopt as
// their parent.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext returns the active span context, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// Span is one completed hop record.
type Span struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
	// Name is the operation ("GET /v1/cpnn", "member.bound", "wal.replay").
	Name string
	// Component is the subsystem that recorded the span ("server", "shard",
	// "replica").
	Component string
	Start     time.Time
	Duration  time.Duration
	// Attrs carries small key/value annotations (phase timings, cache
	// labels, fan-out, status).
	Attrs map[string]string
}

// ActiveSpan is an in-flight span; End records it into its Tracer.
type ActiveSpan struct {
	t  *Tracer
	sp Span
	mu sync.Mutex
}

// Context is the span's own context, for propagation to children and wire
// headers.
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: a.sp.TraceID, SpanID: a.sp.SpanID, Sampled: true}
}

// SetAttr annotates the span. Safe on nil and after End (late attrs are
// simply dropped from the recorded copy).
func (a *ActiveSpan) SetAttr(key, value string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.sp.Attrs == nil {
		a.sp.Attrs = make(map[string]string, 4)
	}
	a.sp.Attrs[key] = value
	a.mu.Unlock()
}

// End stamps the duration and records the span. Safe on nil; a second End
// is ignored.
func (a *ActiveSpan) End() {
	if a == nil || a.t == nil {
		return
	}
	a.mu.Lock()
	t := a.t
	a.t = nil
	a.sp.Duration = time.Since(a.sp.Start)
	sp := a.sp
	if len(a.sp.Attrs) > 0 {
		sp.Attrs = make(map[string]string, len(a.sp.Attrs))
		for k, v := range a.sp.Attrs {
			sp.Attrs[k] = v
		}
	}
	a.mu.Unlock()
	t.Record(sp)
}

// maxSpansPerTrace bounds one trace's memory; a scatter-gather over a huge
// cluster truncates rather than grows without bound.
const maxSpansPerTrace = 128

// DefaultTraceCapacity is the trace-ring size binaries use unless told
// otherwise.
const DefaultTraceCapacity = 256

type traceRec struct {
	spans   []Span
	dropped int
}

// Tracer is a bounded in-memory store of completed spans, grouped by trace
// ID with FIFO eviction of whole traces. It doubles as the GET
// /debug/traces handler.
type Tracer struct {
	mu     sync.Mutex
	max    int
	order  []uint64 // trace IDs in arrival order
	traces map[uint64]*traceRec
}

// NewTracer returns a tracer retaining the last maxTraces traces
// (DefaultTraceCapacity when <= 0).
func NewTracer(maxTraces int) *Tracer {
	if maxTraces <= 0 {
		maxTraces = DefaultTraceCapacity
	}
	return &Tracer{max: maxTraces, traces: make(map[uint64]*traceRec)}
}

// StartSpan opens a child span of the context's span (or a fresh trace when
// none is active) and returns a context carrying the child for further
// propagation. An unsampled parent short-circuits: the context passes
// through untouched and the returned span is nil (every method is nil-safe),
// so hop instrumentation costs nothing on unsampled requests. A parentless
// call starts a fresh, always-recorded trace — sampling headerless ingress
// traffic is the server's decision, not the tracer's. Works on a nil
// tracer: the span still propagates through the context and wire headers,
// it just records nowhere.
func (t *Tracer) StartSpan(ctx context.Context, component, name string) (context.Context, *ActiveSpan) {
	sp := Span{
		SpanID:    newID(),
		Name:      name,
		Component: component,
	}
	if parent, ok := SpanFromContext(ctx); ok {
		if !parent.Sampled {
			return ctx, nil
		}
		sp.TraceID, sp.ParentID = parent.TraceID, parent.SpanID
	} else {
		sp.TraceID = newID()
	}
	sp.Start = time.Now()
	a := &ActiveSpan{t: t, sp: sp}
	return ContextWithSpan(ctx, a.Context()), a
}

// Record stores one completed span. Safe on nil.
func (t *Tracer) Record(sp Span) {
	if t == nil || sp.TraceID == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := t.traces[sp.TraceID]
	if rec == nil {
		for len(t.order) >= t.max {
			evict := t.order[0]
			t.order = t.order[1:]
			delete(t.traces, evict)
		}
		rec = &traceRec{}
		t.traces[sp.TraceID] = rec
		t.order = append(t.order, sp.TraceID)
	}
	if len(rec.spans) >= maxSpansPerTrace {
		rec.dropped++
		return
	}
	rec.spans = append(rec.spans, sp)
}

// SpanJSON is the /debug/traces span shape.
type SpanJSON struct {
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Name       string            `json:"name"`
	Component  string            `json:"component"`
	Start      time.Time         `json:"start"`
	DurationMs float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// TraceJSON is the /debug/traces trace shape.
type TraceJSON struct {
	TraceID    string     `json:"trace_id"`
	Start      time.Time  `json:"start"`
	DurationMs float64    `json:"duration_ms"`
	Dropped    int        `json:"dropped_spans,omitempty"`
	Spans      []SpanJSON `json:"spans"`
}

// Traces returns up to n traces, newest first, keeping only traces whose
// span envelope (first start to last end) lasted at least minDur. n <= 0
// means all retained traces.
func (t *Tracer) Traces(n int, minDur time.Duration) []TraceJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]TraceJSON, 0, len(t.order))
	for i := len(t.order) - 1; i >= 0; i-- {
		id := t.order[i]
		rec := t.traces[id]
		if rec == nil || len(rec.spans) == 0 {
			continue
		}
		tj := TraceJSON{
			TraceID: fmt.Sprintf("%016x", id),
			Dropped: rec.dropped,
			Spans:   make([]SpanJSON, 0, len(rec.spans)),
		}
		start := rec.spans[0].Start
		var end time.Time
		for _, sp := range rec.spans {
			if sp.Start.Before(start) {
				start = sp.Start
			}
			if e := sp.Start.Add(sp.Duration); e.After(end) {
				end = e
			}
			sj := SpanJSON{
				SpanID:     fmt.Sprintf("%016x", sp.SpanID),
				Name:       sp.Name,
				Component:  sp.Component,
				Start:      sp.Start,
				DurationMs: float64(sp.Duration) / float64(time.Millisecond),
				Attrs:      sp.Attrs,
			}
			if sp.ParentID != 0 {
				sj.ParentID = fmt.Sprintf("%016x", sp.ParentID)
			}
			tj.Spans = append(tj.Spans, sj)
		}
		tj.Start = start
		tj.DurationMs = float64(end.Sub(start)) / float64(time.Millisecond)
		if end.Sub(start) < minDur {
			continue
		}
		sort.Slice(tj.Spans, func(a, b int) bool { return tj.Spans[a].Start.Before(tj.Spans[b].Start) })
		out = append(out, tj)
		if n > 0 && len(out) >= n {
			break
		}
	}
	t.mu.Unlock()
	return out
}

// ServeHTTP serves GET /debug/traces?n=&min_ms= as JSON, newest trace
// first.
func (t *Tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		if p, err := strconv.Atoi(v); err == nil {
			n = p
		}
	}
	var minDur time.Duration
	if v := r.URL.Query().Get("min_ms"); v != "" {
		if p, err := strconv.ParseFloat(v, 64); err == nil && p > 0 {
			minDur = time.Duration(p * float64(time.Millisecond))
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	traces := t.Traces(n, minDur)
	if traces == nil {
		traces = []TraceJSON{}
	}
	_ = enc.Encode(map[string]any{"traces": traces})
}
