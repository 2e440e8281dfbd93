package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/verify"
)

// The paper's query shape (§V-A): threshold P = 0.3, tolerance Δ = 0.01.
var paperConstraint = verify.Constraint{P: 0.3, Delta: 0.01}

// respWriter is the in-process client's end of a request: it counts what the
// handler writes and keeps the body only while answers are being checked.
// Requests go straight to Handler().ServeHTTP — on two shared cores loopback
// scheduling would swamp requests that take 6–130 µs.
type respWriter struct {
	hdr    http.Header
	status int
	bytes  int
	body   *bytes.Buffer
}

func newRespWriter() *respWriter { return &respWriter{hdr: http.Header{}} }

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(s int)   { w.status = s }
func (w *respWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	if w.body != nil {
		w.body.Write(p)
	}
	return len(p), nil
}

// do serves one request and reports whether it answered 200.
func (w *respWriter) do(h http.Handler, r *http.Request) bool {
	clear(w.hdr)
	w.status, w.bytes = http.StatusOK, 0
	if w.body != nil {
		w.body.Reset()
	}
	h.ServeHTTP(w, r)
	return w.status == http.StatusOK
}

// cpnnRequest builds GET /v1/cpnn for query point q. The point is printed
// with every digit so the control evaluates the identical float.
func cpnnRequest(q float64) *http.Request {
	return &http.Request{
		Method: http.MethodGet,
		URL: &url.URL{Path: "/v1/cpnn", RawQuery: "q=" + strconv.FormatFloat(q, 'g', -1, 64) +
			"&p=" + strconv.FormatFloat(paperConstraint.P, 'g', -1, 64) +
			"&delta=" + strconv.FormatFloat(paperConstraint.Delta, 'g', -1, 64)},
		Header: http.Header{},
	}
}

// postRequest builds a POST with a JSON body; the body reader is fresh, so
// the request serves exactly one op.
func postRequest(path string, body []byte) *http.Request {
	return &http.Request{
		Method:        http.MethodPost,
		URL:           &url.URL{Path: path},
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
	}
}

// answer is one object of a served or control answer set, in the IDs the
// server reports.
type answer struct {
	ID   uint64  `json:"id"`
	L    float64 `json:"l"`
	U    float64 `json:"u"`
	Stat string  `json:"status"`
}

// servedAnswers decodes the answers of a /v1/cpnn response body.
func servedAnswers(body []byte) ([]answer, error) {
	var resp struct {
		Answers []answer `json:"answers"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding /v1/cpnn response: %w", err)
	}
	return resp.Answers, nil
}

// controlAnswers evaluates the control: the exact engine called directly.
// ids maps the engine's dense IDs to the served ones (nil means identity).
func controlAnswers(eng *core.Engine, q float64, ids []uint64) ([]answer, error) {
	res, err := eng.CPNN(q, paperConstraint, core.Options{})
	if err != nil {
		return nil, err
	}
	out := make([]answer, len(res.Answers))
	for i, a := range res.Answers {
		id := uint64(a.ID)
		if ids != nil {
			id = ids[a.ID]
		}
		out[i] = answer{ID: id, L: a.Bounds.L, U: a.Bounds.U, Stat: a.Status.String()}
	}
	return out, nil
}

// sameAnswers reports whether two answer sets hold the same IDs with bounds
// equal to 1e-9, in any order.
func sameAnswers(got, want []answer) bool {
	if len(got) != len(want) {
		return false
	}
	byID := make(map[uint64]answer, len(want))
	for _, a := range want {
		byID[a.ID] = a
	}
	for _, g := range got {
		w, ok := byID[g.ID]
		if !ok || math.Abs(g.L-w.L) > 1e-9 || math.Abs(g.U-w.U) > 1e-9 || g.Stat != w.Stat {
			return false
		}
	}
	return true
}

// checkServed serves each query point once more and compares the answer with
// the control's. It returns the number compared and the number that differed
// (a non-200 differs).
func checkServed(h http.Handler, points []float64, control func(q float64) ([]answer, error)) (int, int, error) {
	w := newRespWriter()
	w.body = &bytes.Buffer{}
	failed := 0
	for _, q := range points {
		want, err := control(q)
		if err != nil {
			return 0, 0, fmt.Errorf("control at q=%g: %w", q, err)
		}
		if !w.do(h, cpnnRequest(q)) {
			failed++
			continue
		}
		got, err := servedAnswers(w.body.Bytes())
		if err != nil || !sameAnswers(got, want) {
			failed++
		}
	}
	return len(points), failed, nil
}

// writeFloats and writeOps feed op inputs to the input digest; writes to a
// hash never fail.
func writeFloats(w io.Writer, vs []float64) { binary.Write(w, binary.LittleEndian, vs) }

func writeOps(w io.Writer, ops []store.Op) {
	if b, err := store.EncodeOps(ops); err == nil {
		w.Write(b)
	}
}
