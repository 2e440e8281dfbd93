package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/verify"
)

// MaxBatchQueries caps the number of query points in one /v1/batch request.
// Larger workloads should be split client-side; the cap keeps a single
// request from monopolizing the evaluation pool indefinitely.
const MaxBatchQueries = 4096

// DefaultMaxBatchBytes bounds the body of a batch request: 4096 query
// points at float precision fit comfortably within 1 MiB.
const DefaultMaxBatchBytes = 1 << 20

// batchRequest is the POST /v1/batch body. P, Delta and All apply to every
// query of the batch. Strategy is kept only for checkStrategy: the decoder
// is strict, so without the field a client's "strategy":"vr" would be a 400.
// Queries decodes through pointers so a JSON null point is rejected instead
// of silently becoming 0.
type batchRequest struct {
	Queries  []*float64 `json:"queries"`
	P        *float64   `json:"p"`
	Delta    *float64   `json:"delta"`
	Strategy string     `json:"strategy"`
	All      bool       `json:"all"`
}

// points materializes the validated query coordinates.
func (r batchRequest) points() []float64 {
	out := make([]float64, len(r.Queries))
	for i, q := range r.Queries {
		out[i] = *q
	}
	return out
}

// batchResponse carries one result per query point, index-aligned with the
// request. Results are the exact cpnnResponse bodies of the single-query
// endpoint — a batch warms the same cache entries /v1/cpnn reads. Unlike
// per-point bodies, the envelope includes wall-clock timing: the envelope
// itself is never cached, so determinism is not at stake.
type batchResponse struct {
	Version  uint64            `json:"version"`
	Count    int               `json:"count"`
	P        float64           `json:"p"`
	Delta    float64           `json:"delta"`
	Strategy string            `json:"strategy"`
	Results  []json.RawMessage `json:"results"`
	// Cache labels how each point was satisfied: "hit", "miss" or "shared".
	Cache  []string `json:"cache"`
	Hits   int      `json:"hits"`
	Misses int      `json:"misses"`
	Shared int      `json:"shared"`
	WallMs float64  `json:"wall_ms"`
}

// parseBatchRequest decodes and fully validates a batch body before any
// engine work: every coordinate must be finite (shared checkFinite guard),
// the constraint valid, the strategy VR.
func (s *Server) parseBatchRequest(w http.ResponseWriter, r *http.Request) (batchRequest, verify.Constraint, error) {
	var req batchRequest
	if err := decodeStrict(w, r, DefaultMaxBatchBytes, "batch", "", &req); err != nil {
		return req, verify.Constraint{}, err
	}
	if len(req.Queries) == 0 {
		return req, verify.Constraint{}, badRequest("batch holds no query points")
	}
	if len(req.Queries) > MaxBatchQueries {
		return req, verify.Constraint{}, badRequest(
			"batch holds %d query points, limit %d", len(req.Queries), MaxBatchQueries)
	}
	for i, q := range req.Queries {
		if q == nil {
			return req, verify.Constraint{}, badRequest("queries[%d] is null", i)
		}
		if err := checkFinite(fmt.Sprintf("queries[%d]", i), *q); err != nil {
			return req, verify.Constraint{}, err
		}
	}
	c, err := bodyConstraint(req.P, req.Delta)
	if err != nil {
		return req, verify.Constraint{}, err
	}
	if err := c.Validate(); err != nil {
		return req, verify.Constraint{}, badRequest("%v", err)
	}
	if err := checkStrategy(req.Strategy); err != nil {
		return req, verify.Constraint{}, err
	}
	return req, c, nil
}

// handleBatch answers POST /v1/batch: the whole request resolves against one
// backend view, each point is cache-checked individually, and the misses
// are evaluated concurrently under the server's worker pool with identical
// in-flight points collapsed by the singleflight layer. Duplicate points
// within one request evaluate once and share the outcome.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.m.requests[epBatch].Add(1)
	// One view for the whole request: a concurrent reload can never make two
	// points of one batch answer against different dataset generations (in
	// router mode: share one member-version vector in their cache keys).
	v, err := s.be.admit()
	if err != nil {
		s.writeError(w, err)
		return
	}
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, "POST")
		return
	}
	req, c, err := s.parseBatchRequest(w, r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	queries := req.points()
	start := time.Now()

	type outcome struct {
		body []byte
		src  Source
		err  error
	}
	// Evaluate each distinct quantized point once; duplicates share the
	// outcome (and its cache label).
	slot := make(map[float64]*outcome, len(queries))
	var order []float64
	for _, q := range queries {
		qq := s.snapPoint(q)
		if _, ok := slot[qq]; !ok {
			slot[qq] = &outcome{}
			order = append(order, qq)
		}
	}
	// Fan out per distinct point. Engine work is bounded by the server's
	// worker pool inside evaluate; these goroutines mostly wait.
	var wg sync.WaitGroup
	for _, qq := range order {
		wg.Add(1)
		go func(qq float64, out *outcome) {
			defer wg.Done()
			out.body, out.src, out.err = s.cpnnBody(r.Context(), epBatch, v, qq, c, req.All)
		}(qq, slot[qq])
	}
	wg.Wait()

	resp := batchResponse{
		Version:  v.version(),
		Count:    len(queries),
		P:        c.P,
		Delta:    c.Delta,
		Strategy: core.VR.String(),
		Results:  make([]json.RawMessage, 0, len(queries)),
		Cache:    make([]string, 0, len(queries)),
	}
	for _, q := range queries {
		out := slot[s.snapPoint(q)]
		if out.err != nil {
			s.writeError(w, out.err)
			return
		}
		resp.Results = append(resp.Results, json.RawMessage(out.body))
		resp.Cache = append(resp.Cache, out.src.String())
		switch out.src {
		case Hit:
			resp.Hits++
		case Shared:
			resp.Shared++
		default:
			resp.Misses++
		}
	}
	resp.WallMs = float64(time.Since(start)) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, resp)
}
