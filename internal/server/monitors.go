package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/verify"
)

// Continuous queries: POST /v1/monitors registers a standing C-PNN/PNN/k-NN
// query, GET lists them, DELETE removes one, and GET /v1/subscribe streams
// answer updates over Server-Sent Events as batches commit. The endpoints
// require a store or an in-process shard cluster (the change feeds are the
// stores'); without one they answer 501 like /v1/objects.

// monitorRequest is the POST /v1/monitors body. P and Delta are pointers so
// an explicit 0 (valid for delta, rejected for p) is distinguishable from an
// omitted field taking the default — matching /v1/cpnn's query-parameter
// semantics.
type monitorRequest struct {
	Kind     string   `json:"kind"`
	Q        float64  `json:"q"`
	P        *float64 `json:"p,omitempty"`
	Delta    *float64 `json:"delta,omitempty"`
	Strategy string   `json:"strategy,omitempty"`
	K        int      `json:"k,omitempty"`
}

// decodeMonitorRequest parses and validates a registration body into a spec.
// It is the fuzzed entry point of the monitor API surface.
func decodeMonitorRequest(data []byte) (monitor.Spec, error) {
	var req monitorRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return monitor.Spec{}, badRequest("parsing monitor body: %v", err)
	}
	if dec.More() {
		return monitor.Spec{}, badRequest("trailing data after monitor body")
	}
	kind, err := monitor.ParseKind(req.Kind)
	if err != nil {
		return monitor.Spec{}, badRequest("%v", err)
	}
	if err := checkFinite("q", req.Q); err != nil {
		return monitor.Spec{}, err
	}
	if kind == monitor.KindKNN && req.K > maxK {
		return monitor.Spec{}, badRequest("k = %d exceeds %d", req.K, maxK)
	}
	spec := monitor.Spec{Kind: kind, Q: req.Q, K: req.K}
	switch kind {
	case monitor.KindCPNN, monitor.KindKNN:
		spec.Constraint = verify.Constraint{P: 0.3, Delta: 0.01} // /v1/cpnn's defaults
		if req.P != nil {
			if err := checkFinite("p", *req.P); err != nil {
				return monitor.Spec{}, err
			}
			spec.Constraint.P = *req.P
		}
		if req.Delta != nil {
			if err := checkFinite("delta", *req.Delta); err != nil {
				return monitor.Spec{}, err
			}
			spec.Constraint.Delta = *req.Delta
		}
	}
	if kind == monitor.KindCPNN {
		strat, err := parseStrategy(req.Strategy)
		if err != nil {
			return monitor.Spec{}, err
		}
		spec.Strategy = strat
	}
	if err := spec.Validate(); err != nil {
		return monitor.Spec{}, badRequest("%v", err)
	}
	return spec, nil
}

// monitorJSON is one standing query in API responses and SSE payloads.
type monitorJSON struct {
	ID      uint64          `json:"id"`
	Kind    string          `json:"kind"`
	Q       float64         `json:"q"`
	Version uint64          `json:"version"`
	Answer  json.RawMessage `json:"answer"`
}

func monitorInfo(st *monitor.State) monitorJSON {
	return monitorJSON{
		ID: st.ID, Kind: st.Spec.Kind.String(), Q: st.Spec.Q,
		Version: st.Version, Answer: st.Answer,
	}
}

// startMonitors starts the continuous-query subsystem over cfg's store or
// source. Whatever it stands on, the monitor gets the server's worker and
// state budgets, its logger and the push-latency histogram, and exports its
// counters as <prefix>monitor_*.
func (s *Server) startMonitors(cfg monitor.Config, prefix string) error {
	cfg.Workers = s.cfg.MonitorWorkers
	cfg.MaxStateBytes = s.cfg.MonitorStateBytes
	cfg.Logger = s.log.With("subsystem", "monitor")
	cfg.PushLatency = obs.NewHistogram("cpnn_server_monitor_push_latency_seconds",
		"Commit-to-push latency for standing-query updates.", obs.LagBuckets)
	mon, err := monitor.New(cfg)
	if err != nil {
		return err
	}
	s.reg.Register(obs.CollectorFunc(func(e *obs.Emitter) { collectMonitor(e, prefix, mon.Stats()) }))
	s.reg.Register(cfg.PushLatency)
	s.monitors = mon
	return nil
}

func (s *Server) requireMonitor(w http.ResponseWriter) bool {
	if s.monitors == nil {
		s.writeError(w, &httpError{status: http.StatusNotImplemented, msg: s.monitorsHint})
	}
	return s.monitors != nil
}

func (s *Server) handleMonitors(w http.ResponseWriter, r *http.Request) {
	s.m.requests[epMonitors].Add(1)
	if !s.requireMonitor(w) {
		return
	}
	// Standing queries are local to each node — a replica's monitors ride
	// its own replayed change feed — but registering against a half-synced
	// replay would answer from a state the primary never served.
	if _, err := s.be.admit(); err != nil {
		s.writeError(w, err)
		return
	}
	switch r.Method {
	case http.MethodPost:
		body, err := readBody(w, r, s.cfg.MaxDatasetBytes)
		if err != nil {
			s.writeError(w, err)
			return
		}
		spec, err := decodeMonitorRequest(body)
		if err != nil {
			s.writeError(w, err)
			return
		}
		st, err := s.monitors.Register(spec)
		if err != nil {
			if errors.Is(err, monitor.ErrClosed) || errors.Is(err, shard.ErrUnavailable) {
				err = &httpError{status: http.StatusServiceUnavailable, msg: err.Error()}
			} else {
				err = badRequest("%v", err)
			}
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, monitorInfo(st))
	case http.MethodGet:
		states := s.monitors.List()
		out := make([]monitorJSON, len(states))
		for i, st := range states {
			out[i] = monitorInfo(st)
		}
		writeJSON(w, http.StatusOK, struct {
			Monitors []monitorJSON `json:"monitors"`
		}{out})
	case http.MethodDelete:
		raw := query(r.URL.RawQuery).Get("id")
		id, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			s.writeError(w, badRequest("parameter %q: %q is not a monitor id", "id", raw))
			return
		}
		if !s.monitors.Unregister(id) {
			s.writeError(w, &httpError{status: http.StatusNotFound,
				msg: fmt.Sprintf("%v %d", monitor.ErrUnknownMonitor, id)})
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Deleted uint64 `json:"deleted"`
		}{id})
	default:
		s.methodNotAllowed(w, "GET, POST, DELETE")
	}
}

// readBody drains a size-capped request body.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		if tl := tooLarge(err, "body"); tl != nil {
			return nil, tl
		}
		return nil, badRequest("reading body: %v", err)
	}
	return data, nil
}

// sseRetryAfter is the Retry-After value of draining 503s: long enough for a
// rolling restart's load-balancer flip, short enough to reconnect promptly.
const sseRetryAfter = "1"

// handleSubscribe streams monitor updates as Server-Sent Events. ?ids=1,2
// narrows the stream; without it every standing query (present and future)
// is streamed. Each connection first receives one "snapshot" event per
// subscribed monitor (its current answer), then "update" events as answers
// change, ": ping" comments as keep-alives, and an explicit "lagged" event
// if it reads too slowly and updates were dropped (resynchronize via GET
// /v1/monitors). Draining closes the stream so http.Server.Shutdown can
// finish.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	s.m.requests[epSubscribe].Add(1)
	if !s.requireMonitor(w) {
		return
	}
	if _, err := s.be.admit(); err != nil {
		s.writeError(w, err)
		return
	}
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, "GET")
		return
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", sseRetryAfter)
		s.writeError(w, &httpError{status: http.StatusServiceUnavailable, msg: "server is draining"})
		return
	}
	ids, err := parseIDList(query(r.URL.RawQuery).Get("ids"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, fmt.Errorf("response writer does not support streaming"))
		return
	}
	sub, err := s.monitors.Subscribe(ids, 0)
	if err != nil {
		s.writeError(w, &httpError{status: http.StatusServiceUnavailable, msg: err.Error()})
		return
	}
	defer sub.Close()

	// Structured close accounting: every stream ends for exactly one reason,
	// counted in cpnn_server_sse_closed_total and logged with the trace ID.
	reason := sseClosed
	sawLag := false
	start := time.Now()
	defer func() {
		if sawLag && reason == sseClosed {
			// A lagged subscriber is cut by the monitor; attribute the close
			// to the lag rather than a plain unsubscribe.
			reason = sseLagged
		}
		s.m.sseClosed[reason].Add(1)
		s.log.Info("sse stream closed",
			"reason", sseReasonNames[reason],
			"trace_id", obs.TraceID(r.Context()),
			"ids", len(ids),
			"duration_ms", float64(time.Since(start))/float64(time.Millisecond))
		obs.ReqInfoFrom(r.Context()).Set("sse_close_reason", sseReasonNames[reason])
	}()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	// Baseline: the current answer of every subscribed monitor, so a client
	// can diff updates without a second request.
	want := map[uint64]bool{}
	for _, id := range ids {
		want[id] = true
	}
	for _, st := range s.monitors.List() {
		if len(want) > 0 && !want[st.ID] {
			continue
		}
		writeSSE(w, "snapshot", monitorInfo(st))
	}
	flusher.Flush()

	ping := time.NewTicker(15 * time.Second)
	defer ping.Stop()
	for {
		select {
		case <-r.Context().Done():
			reason = sseClientGone
			return
		case <-s.drainCh:
			reason = sseDrain
			return
		case <-ping.C:
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
		case ev, ok := <-sub.C():
			if !ok {
				return
			}
			switch ev.Type {
			case monitor.EventUpdate:
				writeSSE(w, "update", ev.Update)
			case monitor.EventLagged:
				sawLag = true
				writeSSE(w, "lagged", struct {
					Dropped bool `json:"dropped"`
				}{true})
			}
			flusher.Flush()
		}
	}
}

// writeSSE frames one Server-Sent Event.
func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// parseIDList parses a comma-separated monitor ID list; empty means all.
func parseIDList(raw string) ([]uint64, error) {
	if raw == "" {
		return nil, nil
	}
	parts := strings.Split(raw, ",")
	out := make([]uint64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		id, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, badRequest("parameter %q: %q is not a monitor id", "ids", p)
		}
		out = append(out, id)
	}
	return out, nil
}
