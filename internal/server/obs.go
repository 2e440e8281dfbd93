package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// traceSampleEvery is the headerless sampling rate: requests that carry no
// X-Cpnn-Trace header record a full trace only once per this many requests.
// A request WITH the header is always recorded end to end — sending one is
// how an operator (or CI) asks for a trace.
const traceSampleEvery = 128

// ingress wraps the mux in the observability middleware. On the sampled
// path it adopts the caller's span from the X-Cpnn-Trace header (or mints a
// fresh trace), records an ingress span covering the whole request,
// attaches a ReqInfo carrier for downstream annotations (phase timings,
// cache label, fan-out), echoes the trace header on the response, and feeds
// the slow-query log. Unsampled requests with the slow log off take a fast
// path that only stamps an unsampled span context — the per-phase latency
// histograms observe inside the handlers either way, so /metrics always
// sees every request.
func (s *Server) ingress(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		parent, hasParent := obs.ParseHeader(r.Header.Get(obs.TraceHeader))
		sampled := hasParent || s.traceSample.Add(1)%traceSampleEvery == 1
		var span *obs.ActiveSpan
		if sampled {
			if hasParent {
				ctx = obs.ContextWithSpan(ctx, parent)
			}
			ctx, span = s.tracer.StartSpan(ctx, "server", r.Method+" "+r.URL.Path)
		} else if s.cfg.ShardRouter != nil || s.slowlog.Threshold() > 0 {
			// Valid-but-unsampled IDs: the router's hop spans short-circuit
			// to no-ops instead of minting fresh root traces, and logs and
			// the slow log still get a correlation ID. A plain single-store
			// server forks no downstream spans, so when the slow log is off
			// it skips even this and the fast path stays allocation-free.
			ctx = obs.ContextWithSpan(ctx, obs.NewUnsampledContext())
		}
		if span == nil && s.slowlog.Threshold() <= 0 {
			if ctx != r.Context() {
				r = r.WithContext(ctx)
			}
			next.ServeHTTP(w, r)
			return
		}

		ctx, ri := obs.WithReqInfo(ctx)
		if sc, ok := obs.SpanFromContext(ctx); ok {
			w.Header().Set(obs.TraceHeader, sc.Header())
		}
		sw := newStatusWriter(w)
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		dur := time.Since(start)

		attrs := ri.Attrs()
		span.SetAttr("status", strconv.Itoa(sw.status))
		for k, v := range attrs {
			span.SetAttr(k, v)
		}
		span.End()

		durMs := float64(dur) / float64(time.Millisecond)
		if s.slowlog.Observe(obs.SlowEntry{
			Time:       start,
			TraceID:    obs.TraceID(ctx),
			Endpoint:   r.URL.Path,
			Query:      r.URL.RawQuery,
			Status:     sw.status,
			DurationMs: durMs,
			Attrs:      attrs,
		}) {
			s.log.Warn("slow query",
				"trace_id", obs.TraceID(ctx),
				"endpoint", r.URL.Path,
				"query", r.URL.RawQuery,
				"status", sw.status,
				"duration_ms", durMs)
		}
	})
}

// observePhases feeds one query's core.Stats into the per-phase latency
// histograms and annotates the request with the breakdown. Called only on
// cache-miss evaluations — cache hits spent no phase time. filter, derive
// and verify partition the query; table is the subregion-table share of
// derive (zero for k-NN, which builds none).
func (s *Server) observePhases(ctx context.Context, ep endpoint, st core.Stats) {
	filter, derive, verifyDur := st.PhaseDurations()
	h := &s.phaseObs[ep]
	h[0].Observe(filter.Seconds())
	h[1].Observe(derive.Seconds())
	h[2].Observe(st.TableTime.Seconds())
	h[3].Observe(verifyDur.Seconds())
	if ri := obs.ReqInfoFrom(ctx); ri != nil {
		ri.Set("phase_filter_ms", formatMs(filter))
		ri.Set("phase_derive_ms", formatMs(derive))
		ri.Set("phase_table_ms", formatMs(st.TableTime))
		ri.Set("phase_verify_ms", formatMs(verifyDur))
	}
}

func formatMs(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}

// statusWriter captures the response status for the ingress span while
// preserving http.Flusher — the SSE subscribe stream needs Flush.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func newStatusWriter(w http.ResponseWriter) *statusWriter {
	return &statusWriter{ResponseWriter: w, status: http.StatusOK}
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
