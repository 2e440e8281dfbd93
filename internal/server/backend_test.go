package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pdf"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/uncertain"
)

// parityLimit is the body limit every parity server runs with: large enough
// for the over-limit batches (which must fail on their count, not their
// size), small enough that the 413 rows stay cheap.
const parityLimit = 256 << 10

// parityBackend is one serving shape of TestBackendParity. idShift aligns a
// dataset-only server's dense 0-based IDs with the stable 1-based IDs every
// store-backed shape reports for the same objects.
type parityBackend struct {
	name    string
	srv     *Server
	idShift float64
}

// what a table row needs from the backend; shapes that cannot provide it
// must refuse with their gate's status before looking at the request.
const (
	needRead = iota
	needObjects
	needDataset
	needMonitors
)

// gateStatus is the status a shape answers rows it cannot serve: a
// dataset-only server has neither durable IDs nor a change feed (501), a
// replica bounces every write to its primary (307). 0 means "serves it".
func (b parityBackend) gateStatus(need int) int {
	switch {
	case b.name == "dataset" && (need == needObjects || need == needMonitors):
		return http.StatusNotImplemented
	case b.name == "replica" && (need == needObjects || need == needDataset):
		return http.StatusTemporaryRedirect
	}
	return 0
}

// clusterOver boots a K-shard in-process cluster holding pdfs under the
// stable IDs 1..len(pdfs), with its router. The cluster closes with the
// test, after any server the caller builds over the router.
func clusterOver(t *testing.T, pdfs []pdf.PDF, k int) (*shard.Cluster, *shard.Router) {
	t.Helper()
	ids := make([]uint64, len(pdfs))
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	view := &store.View{Dataset: uncertain.NewDataset(pdfs), IDs: ids, NextID: uint64(len(pdfs)) + 1}
	cluster, err := shard.CreateCluster(t.TempDir(), k, view, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	rt, err := cluster.Router()
	if err != nil {
		t.Fatal(err)
	}
	return cluster, rt
}

// parityBackends boots a dataset-only server, a store server (also the
// replication primary), its caught-up replica and a K=2 in-process shard
// router over the same objects.
func parityBackends(t *testing.T) []parityBackend {
	t.Helper()
	pdfs := make([]pdf.PDF, 40)
	for i := range pdfs {
		pdfs[i] = pdf.MustUniform(float64(8*i), float64(8*i)+20)
	}
	// One caller registry shared by all four: a server's own families live in
	// its private registry, so none may show up twice in any scrape.
	base := Config{QueueTimeout: -1, MaxDatasetBytes: parityLimit, Metrics: obs.NewRegistry()}

	dcfg := base
	dcfg.Dataset = uncertain.NewDataset(pdfs)
	dataset, err := New(dcfg)
	if err != nil {
		t.Fatal(err)
	}

	primary, rep := replicaPairOver(t, pdfs, base)

	rcfg := base
	rcfg.ShardCluster, rcfg.ShardRouter = clusterOver(t, pdfs, 2)
	router, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	return []parityBackend{
		{name: "dataset", srv: dataset, idShift: 1},
		{name: "store", srv: primary},
		{name: "replica", srv: rep},
		{name: "router", srv: router},
	}
}

// normalize strips what legitimately differs between shapes from a response
// body — version fields, the batch envelope's wall-clock — and shifts
// object IDs, so equal answers compare equal.
func normalize(t *testing.T, body []byte, idShift float64) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	var walk func(v any)
	walk = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			delete(x, "version")
			delete(x, "wall_ms")
			if id, ok := x["id"].(float64); ok {
				x["id"] = id + idShift
			}
			for _, c := range x {
				walk(c)
			}
		case []any:
			for _, c := range x {
				walk(c)
			}
		}
	}
	walk(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// repeatJSON renders open + n comma-separated copies of item + close.
func repeatJSON(open, item string, n int, close string) string {
	return open + strings.TrimSuffix(strings.Repeat(item+",", n), ",") + close
}

// TestBackendParity drives one request table through every serving shape.
// The one handler set is the claim under test: good reads answer with equal
// bodies (modulo version), and every malformed, unknown, mis-method or
// oversized request gets the same status and the same error body no matter
// which backend sits behind the handler. Shapes that cannot serve a row
// (writes on a dataset-only server or a replica) must answer with their
// gate's status instead.
func TestBackendParity(t *testing.T) {
	backends := parityBackends(t)
	// A JSON body that stays syntactically open until the reader's limit
	// trips; the dataset reader gets lines it would accept.
	overflowJSON := func(prefix string, limit int) string {
		return prefix + strings.Repeat(" ", limit)
	}
	rows := []struct {
		name, method, path, body string
		need                     int
		status                   int
		allow                    string // 405 rows: the Allow header
		sameAs                   string // 200 rows: a path whose body this one's must equal
	}{
		// Good reads: bodies equal modulo version.
		{name: "cpnn", method: "GET", path: "/v1/cpnn?q=137.5&p=0.3&delta=0.01", status: 200},
		{name: "cpnn all vr", method: "GET", path: "/v1/cpnn?q=201&p=0.5&delta=0.05&all=1&strategy=vr",
			status: 200, sameAs: "/v1/cpnn?q=201&p=0.5&delta=0.05&all=1"},
		{name: "pnn", method: "GET", path: "/v1/pnn?q=137.5", status: 200},
		{name: "pnn edge", method: "GET", path: "/v1/pnn?q=330", status: 200},
		{name: "knn", method: "GET", path: "/v1/knn?q=100&k=2&p=0.3&delta=0.05", status: 200},
		{name: "knn all", method: "GET", path: "/v1/knn?q=100&k=3&p=0.3&delta=0.05&all=1", status: 200},
		// Old clients: samples and seed are unknown parameters now, and every
		// endpoint ignores unknown query parameters.
		{name: "knn old client params", method: "GET", path: "/v1/knn?q=100&k=2&p=0.3&delta=0.05&samples=0&seed=9",
			status: 200, sameAs: "/v1/knn?q=100&k=2&p=0.3&delta=0.05"},
		{name: "batch", method: "POST", path: "/v1/batch", body: `{"queries":[10,77.5,10,290],"p":0.2,"delta":0.02,"all":true}`, status: 200},

		// 400: query parameters.
		{name: "missing q", method: "GET", path: "/v1/cpnn?p=0.3", status: 400},
		{name: "NaN q", method: "GET", path: "/v1/cpnn?q=NaN", status: 400},
		{name: "overflowing q", method: "GET", path: "/v1/pnn?q=1e999", status: 400},
		{name: "pnn missing q", method: "GET", path: "/v1/pnn", status: 400},
		{name: "bad p", method: "GET", path: "/v1/cpnn?q=1&p=1.5", status: 400},
		{name: "NaN p", method: "GET", path: "/v1/knn?q=1&k=2&p=NaN", status: 400},
		{name: "bad delta", method: "GET", path: "/v1/cpnn?q=1&delta=-0.1", status: 400},
		{name: "bad strategy", method: "GET", path: "/v1/cpnn?q=1&strategy=monte-carlo", status: 400},
		{name: "cpnn all basic", method: "GET", path: "/v1/cpnn?q=201&p=0.5&delta=0.05&all=1&strategy=basic", status: 400},
		{name: "knn missing k", method: "GET", path: "/v1/knn?q=1", status: 400},
		{name: "knn bad k", method: "GET", path: "/v1/knn?q=1&k=two", status: 400},
		{name: "knn k over limit", method: "GET", path: fmt.Sprintf("/v1/knn?q=1&k=%d", maxK+1), status: 400},

		// 400: bodies.
		{name: "batch null point", method: "POST", path: "/v1/batch", body: `{"queries":[1,null]}`, status: 400},
		{name: "batch unknown field", method: "POST", path: "/v1/batch", body: `{"queries":[1],"bogus":true}`, status: 400},
		{name: "batch empty", method: "POST", path: "/v1/batch", body: `{"queries":[]}`, status: 400},
		{name: "batch basic", method: "POST", path: "/v1/batch", body: `{"queries":[1],"strategy":"basic"}`, status: 400},
		{name: "batch over limit", method: "POST", path: "/v1/batch",
			body: repeatJSON(`{"queries":[`, "1", MaxBatchQueries+1, `]}`), status: 400},
		{name: "objects empty", method: "POST", path: "/v1/objects", body: `{"objects":[]}`, need: needObjects, status: 400},
		{name: "objects over limit", method: "POST", path: "/v1/objects",
			body: repeatJSON(`{"objects":[`, "{}", MaxObjectsBatch+1, `]}`), need: needObjects, status: 400},
		{name: "objects unknown field", method: "POST", path: "/v1/objects", body: `{"objects":[],"bogus":1}`, need: needObjects, status: 400},
		{name: "objects two payloads", method: "POST", path: "/v1/objects",
			body: `{"objects":[{"uniform":{"lo":0,"hi":1},"hist":{"edges":[0,1],"weights":[1]}}]}`, need: needObjects, status: 400},
		{name: "objects disk", method: "POST", path: "/v1/objects",
			body: `{"objects":[{"disk":{"x":0,"y":0,"r":1}}]}`, need: needObjects, status: 400},
		{name: "objects inverted uniform", method: "POST", path: "/v1/objects",
			body: `{"objects":[{"uniform":{"lo":5,"hi":1}}]}`, need: needObjects, status: 400},
		{name: "objects infinite hi", method: "POST", path: "/v1/objects",
			body: `{"objects":[{"uniform":{"lo":1,"hi":1e999}}]}`, need: needObjects, status: 400},
		{name: "delete empty", method: "DELETE", path: "/v1/objects", body: `{"ids":[]}`, need: needObjects, status: 400},
		{name: "delete over limit", method: "DELETE", path: "/v1/objects",
			body: repeatJSON(`{"ids":[`, "1", MaxObjectsBatch+1, `]}`), need: needObjects, status: 400},
		{name: "delete unknown field", method: "DELETE", path: "/v1/objects", body: `{"ids":[1],"bogus":1}`, need: needObjects, status: 400},
		{name: "delete malformed", method: "DELETE", path: "/v1/objects", body: `{"ids":[`, need: needObjects, status: 400},
		{name: "delete bad id", method: "DELETE", path: "/v1/objects?id=seven", need: needObjects, status: 400},
		{name: "dataset empty", method: "POST", path: "/v1/dataset", body: "\n", need: needDataset, status: 400},
		{name: "dataset malformed", method: "POST", path: "/v1/dataset", body: "1 two\n", need: needDataset, status: 400},
		{name: "monitor unknown field", method: "POST", path: "/v1/monitors", body: `{"kind":"pnn","q":1,"bogus":1}`, need: needMonitors, status: 400},
		{name: "monitor basic", method: "POST", path: "/v1/monitors", body: `{"kind":"cpnn","q":1,"strategy":"basic"}`, need: needMonitors, status: 400},
		{name: "monitor knn samples", method: "POST", path: "/v1/monitors", body: `{"kind":"knn","q":1,"k":2,"samples":100}`, need: needMonitors, status: 400},
		{name: "monitor knn k over limit", method: "POST", path: "/v1/monitors",
			body: fmt.Sprintf(`{"kind":"knn","q":1,"k":%d}`, maxK+1), need: needMonitors, status: 400},

		// 404, 405 + Allow.
		{name: "delete unknown id", method: "DELETE", path: "/v1/objects?id=99999", need: needObjects, status: 404},
		{name: "monitor unknown id", method: "DELETE", path: "/v1/monitors?id=99999", need: needMonitors, status: 404},
		{name: "batch GET", method: "GET", path: "/v1/batch", status: 405, allow: "POST"},
		{name: "dataset DELETE", method: "DELETE", path: "/v1/dataset", status: 405, allow: "GET, POST"},
		{name: "objects GET", method: "GET", path: "/v1/objects", need: needObjects, status: 405, allow: "POST, DELETE"},
		{name: "monitors PUT", method: "PUT", path: "/v1/monitors", need: needMonitors, status: 405, allow: "GET, POST, DELETE"},
		{name: "subscribe POST", method: "POST", path: "/v1/subscribe", need: needMonitors, status: 405, allow: "GET"},

		// 413 on every body-taking method.
		{name: "batch too large", method: "POST", path: "/v1/batch",
			body: overflowJSON(`{"queries":[`, DefaultMaxBatchBytes), status: 413},
		{name: "objects too large", method: "POST", path: "/v1/objects",
			body: overflowJSON(`{"objects":[`, parityLimit), need: needObjects, status: 413},
		{name: "delete too large", method: "DELETE", path: "/v1/objects",
			body: overflowJSON(`{"ids":[`, parityLimit), need: needObjects, status: 413},
		{name: "dataset too large", method: "POST", path: "/v1/dataset",
			body: strings.Repeat("1 2\n", parityLimit/4+1), need: needDataset, status: 413},
		{name: "monitor too large", method: "POST", path: "/v1/monitors",
			body: overflowJSON(`{"kind":"pnn",`, parityLimit), need: needMonitors, status: 413},
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			want, wantFrom := "", ""
			for _, b := range backends {
				req := httptest.NewRequest(row.method, row.path, strings.NewReader(row.body))
				rec := httptest.NewRecorder()
				b.srv.Handler().ServeHTTP(rec, req)
				if gate := b.gateStatus(row.need); gate != 0 {
					if rec.Code != gate {
						t.Errorf("%s: status %d, want its gate's %d (body %s)", b.name, rec.Code, gate, rec.Body)
					}
					continue
				}
				if rec.Code != row.status {
					t.Errorf("%s: status %d, want %d (body %s)", b.name, rec.Code, row.status, rec.Body)
					continue
				}
				if row.allow != "" {
					if got := rec.Header().Get("Allow"); got != row.allow {
						t.Errorf("%s: Allow %q, want %q", b.name, got, row.allow)
					}
				}
				got := rec.Body.String()
				if row.status == http.StatusOK {
					got = normalize(t, rec.Body.Bytes(), b.idShift)
					if row.sameAs != "" {
						if same := normalize(t, get(t, b.srv, row.sameAs).Body.Bytes(), b.idShift); got != same {
							t.Errorf("%s: body %s, %s answers %s", b.name, got, row.sameAs, same)
						}
					}
				}
				if wantFrom == "" {
					want, wantFrom = got, b.name
				} else if got != want {
					t.Errorf("%s and %s disagree:\n%s: %s\n%s: %s", wantFrom, b.name, wantFrom, want, b.name, got)
				}
			}
		})
	}
}
