package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHeaderRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: 0xdeadbeef01020304, SpanID: 0x0102030405060708}
	h := sc.Header()
	if len(h) != 33 || h[16] != '-' {
		t.Fatalf("header %q has the wrong shape", h)
	}
	want := sc
	want.Sampled = true // an explicit header is a request to record
	got, ok := ParseHeader(h)
	if !ok || got != want {
		t.Fatalf("ParseHeader(%q) = %+v, %v", h, got, ok)
	}
	for _, bad := range []string{
		"", "zz", strings.Repeat("0", 33), // no dash
		"000000000000000g-0000000000000001", // non-hex
		"0000000000000001-0000000000000001x",
	} {
		if _, ok := ParseHeader(bad); ok {
			t.Errorf("ParseHeader(%q) accepted", bad)
		}
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer(4)
	ctx, root := tr.StartSpan(context.Background(), "server", "GET /v1/cpnn")
	_, child := tr.StartSpan(ctx, "shard", "member.bound")
	child.SetAttr("shard", "0")
	child.End()
	root.End()

	traces := tr.Traces(0, 0)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	spans := traces[0].Spans
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Spans sort by start time: root first.
	if spans[0].Name != "GET /v1/cpnn" || spans[1].Name != "member.bound" {
		t.Fatalf("span order: %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[1].ParentID != spans[0].SpanID {
		t.Fatalf("child parent %s != root span %s", spans[1].ParentID, spans[0].SpanID)
	}
	if spans[1].Attrs["shard"] != "0" {
		t.Fatalf("child attrs = %v", spans[1].Attrs)
	}
}

func TestTracerEvictsWholeTracesFIFO(t *testing.T) {
	tr := NewTracer(2)
	var first string
	for i := 0; i < 3; i++ {
		ctx, sp := tr.StartSpan(context.Background(), "server", "req")
		if i == 0 {
			sc, _ := SpanFromContext(ctx)
			first = sc.TraceHex()
		}
		sp.End()
	}
	traces := tr.Traces(0, 0)
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want capacity 2", len(traces))
	}
	for _, tj := range traces {
		if tj.TraceID == first {
			t.Fatal("oldest trace not evicted")
		}
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartSpan(context.Background(), "server", "req")
	if _, ok := SpanFromContext(ctx); !ok {
		t.Fatal("nil tracer must still propagate a span context")
	}
	sp.SetAttr("k", "v")
	sp.End() // must not panic
	var nilSpan *ActiveSpan
	nilSpan.SetAttr("k", "v")
	nilSpan.End()
}

func TestTracerUnsampledParentRecordsNothing(t *testing.T) {
	tr := NewTracer(4)
	ctx := ContextWithSpan(context.Background(), NewUnsampledContext())
	child, sp := tr.StartSpan(ctx, "shard", "member.bound")
	if sp != nil {
		t.Fatal("unsampled parent must yield a nil span")
	}
	if child != ctx {
		t.Fatal("unsampled parent must pass the context through untouched")
	}
	sp.SetAttr("k", "v")
	sp.End()
	if got := tr.Traces(0, 0); len(got) != 0 {
		t.Fatalf("unsampled request recorded %d traces", len(got))
	}
	if sc, ok := SpanFromContext(ctx); !ok || sc.Sampled {
		t.Fatalf("unsampled context: %+v, %v", sc, ok)
	}
}

func TestTracerMinDurationFilter(t *testing.T) {
	tr := NewTracer(8)
	_, fast := tr.StartSpan(context.Background(), "server", "fast")
	fast.End()
	if got := tr.Traces(0, time.Hour); len(got) != 0 {
		t.Fatalf("min-duration filter kept %d traces", len(got))
	}
	if got := tr.Traces(0, 0); len(got) != 1 {
		t.Fatalf("unfiltered got %d traces", len(got))
	}
}

func TestTracerServeHTTP(t *testing.T) {
	tr := NewTracer(8)
	_, sp := tr.StartSpan(context.Background(), "server", "req")
	sp.End()
	rec := httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?n=5", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var out struct {
		Traces []TraceJSON `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if len(out.Traces) != 1 || len(out.Traces[0].Spans) != 1 {
		t.Fatalf("payload: %s", rec.Body.Bytes())
	}
}

func TestHistogramRendersMonotonicBuckets(t *testing.T) {
	h := NewHistogram("test_seconds", "help text", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5, 0.05} {
		h.Observe(v)
	}
	h.Observe(-1) // dropped
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	var b strings.Builder
	h.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP test_seconds help text",
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{le="0.01"} 1`,
		`test_seconds_bucket{le="0.1"} 3`,
		`test_seconds_bucket{le="1"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		"test_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramVec(t *testing.T) {
	v := NewHistogramVec("phase_seconds", "per-phase", []string{"phase", "endpoint"}, []float64{1})
	v.With("filter", "cpnn").Observe(0.5)
	v.With("verify", "cpnn").Observe(2)
	v.With("filter", "cpnn").Observe(0.25)

	var b strings.Builder
	v.WritePrometheus(&b)
	out := b.String()
	if strings.Count(out, "# TYPE phase_seconds histogram") != 1 {
		t.Fatalf("family header must appear exactly once:\n%s", out)
	}
	for _, want := range []string{
		`phase_seconds_bucket{phase="filter",endpoint="cpnn",le="1"} 2`,
		`phase_seconds_bucket{phase="verify",endpoint="cpnn",le="+Inf"} 1`,
		`phase_seconds_count{phase="filter",endpoint="cpnn"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	var empty strings.Builder
	NewHistogramVec("unused", "h", []string{"a"}, nil).WritePrometheus(&empty)
	if empty.Len() != 0 {
		t.Fatalf("empty vec rendered: %q", empty.String())
	}
	var nilVec *HistogramVec
	if nilVec.With("x") != nil {
		t.Fatal("nil vec must hand out nil children")
	}
}

func TestSlowLogRingAndThreshold(t *testing.T) {
	l := NewSlowLog(2, 10*time.Millisecond)
	if l.Observe(SlowEntry{Endpoint: "/fast", DurationMs: 5}) {
		t.Fatal("below-threshold entry admitted")
	}
	for i, ms := range []float64{12, 20, 30} {
		if !l.Observe(SlowEntry{Endpoint: "/slow", DurationMs: ms, Status: 200 + i}) {
			t.Fatalf("entry %d rejected", i)
		}
	}
	if l.Total() != 3 {
		t.Fatalf("total = %d", l.Total())
	}
	got := l.Entries(0)
	if len(got) != 2 || got[0].DurationMs != 30 || got[1].DurationMs != 20 {
		t.Fatalf("ring contents: %+v", got)
	}

	disabled := NewSlowLog(2, 0)
	if disabled.Observe(SlowEntry{DurationMs: 1e9}) {
		t.Fatal("disabled log admitted an entry")
	}

	rec := httptest.NewRecorder()
	l.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slowlog?n=1", nil))
	var out struct {
		ThresholdMs float64     `json:"threshold_ms"`
		Total       uint64      `json:"total"`
		Entries     []SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if out.ThresholdMs != 10 || out.Total != 3 || len(out.Entries) != 1 {
		t.Fatalf("payload: %+v", out)
	}
}

func TestReqInfo(t *testing.T) {
	ctx, ri := WithReqInfo(context.Background())
	ReqInfoFrom(ctx).Set("cache", "hit")
	ri.Set("fanout", "3")
	attrs := ri.Attrs()
	if attrs["cache"] != "hit" || attrs["fanout"] != "3" {
		t.Fatalf("attrs = %v", attrs)
	}
	var nilRI *ReqInfo
	nilRI.Set("k", "v")
	if nilRI.Attrs() != nil {
		t.Fatal("nil ReqInfo must return nil attrs")
	}
	if ReqInfoFrom(context.Background()) != nil {
		t.Fatal("bare context must have no ReqInfo")
	}
}

func TestLoggerOptions(t *testing.T) {
	var b strings.Builder
	lg, err := (&LogOptions{Format: "json", Level: "debug"}).Logger(&b, "test")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hello", "k", "v")
	var line map[string]any
	if err := json.Unmarshal([]byte(b.String()), &line); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, b.String())
	}
	if line["component"] != "test" || line["k"] != "v" {
		t.Fatalf("line = %v", line)
	}
	if _, err := (&LogOptions{Format: "yaml", Level: "info"}).Logger(&b, "x"); err == nil {
		t.Fatal("bad format accepted")
	}
	if _, err := (&LogOptions{Format: "text", Level: "loud"}).Logger(&b, "x"); err == nil {
		t.Fatal("bad level accepted")
	}
	Or(nil).Info("discarded") // must not panic
}

func TestBuildInfo(t *testing.T) {
	var b strings.Builder
	CollectorFunc(BuildInfo).WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, "cpnn_build_info{") || !strings.Contains(out, `version="`+Version+`"`) {
		t.Fatalf("build info: %q", out)
	}
}

// TestEmitter pins what the emitter owns: HELP then TYPE once per family,
// quoted labels, %d integers and %g floats.
func TestEmitter(t *testing.T) {
	var b strings.Builder
	CollectorFunc(func(e *Emitter) {
		Counter(e, "t_requests_total", "Requests, by endpoint.", int64(3), "endpoint", "cpnn")
		Counter(e, "t_requests_total", "Requests, by endpoint.", int64(0), "endpoint", `a"b`)
		Gauge(e, "t_big", "An integer past %g's exponent threshold.", uint64(12345678))
		Gauge(e, "t_ratio", "A float.", 0.25)
		Counter(e, "t_seconds_total", "A float that is large.", 12345678.0, "a", "x", "b", "y")
	}).WritePrometheus(&b)
	want := `# HELP t_requests_total Requests, by endpoint.
# TYPE t_requests_total counter
t_requests_total{endpoint="cpnn"} 3
t_requests_total{endpoint="a\"b"} 0
# HELP t_big An integer past %g's exponent threshold.
# TYPE t_big gauge
t_big 12345678
# HELP t_ratio A float.
# TYPE t_ratio gauge
t_ratio 0.25
# HELP t_seconds_total A float that is large.
# TYPE t_seconds_total counter
t_seconds_total{a="x",b="y"} 1.2345678e+07
`
	if b.String() != want {
		t.Fatalf("emitted:\n%s\nwant:\n%s", b.String(), want)
	}
}
