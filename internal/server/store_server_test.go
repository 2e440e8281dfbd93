package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/store"
	"repro/internal/uncertain"
)

func storeBackedServer(t *testing.T, dir string, seedObjects int) *Server {
	t.Helper()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: st, QueueTimeout: -1}
	if seedObjects > 0 {
		pdfs := make([]pdf.PDF, seedObjects)
		for i := range pdfs {
			pdfs[i] = pdf.MustUniform(float64(10*i), float64(10*i)+5)
		}
		cfg.Dataset = uncertain.NewDataset(pdfs)
		cfg.Source = "seed"
	}
	s, err := New(cfg)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return s
}

func doJSON(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func TestObjectsInsertUpdateDelete(t *testing.T) {
	s := storeBackedServer(t, t.TempDir(), 3)
	defer s.Close()

	// Insert two objects.
	w := doJSON(t, s, http.MethodPost, "/v1/objects",
		`{"objects":[{"uniform":{"lo":100,"hi":110}},{"hist":{"edges":[200,201,202],"weights":[1,3]}}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", w.Code, w.Body)
	}
	var resp objectsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != 2 || resp.Objects != 5 || resp.Version != 2 {
		t.Fatalf("insert response: %+v", resp)
	}
	idA, idB := resp.IDs[0], resp.IDs[1]

	// The inserted object answers queries under its stable ID.
	w = doJSON(t, s, http.MethodGet, "/v1/cpnn?q=105&p=0.3", "")
	if w.Code != http.StatusOK {
		t.Fatalf("cpnn: %d %s", w.Code, w.Body)
	}
	var cp struct {
		Version uint64 `json:"version"`
		Answers []struct {
			ID int `json:"id"`
		} `json:"answers"`
	}
	json.Unmarshal(w.Body.Bytes(), &cp)
	if cp.Version != 2 {
		t.Fatalf("cpnn served version %d", cp.Version)
	}
	found := false
	for _, a := range cp.Answers {
		if a.ID == int(idA) {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted object %d not in answers %+v", idA, cp.Answers)
	}

	// Update A away from the query point; the old cache entry must not serve.
	w = doJSON(t, s, http.MethodPost, "/v1/objects",
		fmt.Sprintf(`{"objects":[{"id":%d,"uniform":{"lo":5000,"hi":5010}}]}`, idA))
	if w.Code != http.StatusOK {
		t.Fatalf("update: %d %s", w.Code, w.Body)
	}
	w = doJSON(t, s, http.MethodGet, "/v1/cpnn?q=105&p=0.3", "")
	json.Unmarshal(w.Body.Bytes(), &cp)
	if cp.Version != 3 {
		t.Fatalf("post-update version %d", cp.Version)
	}
	for _, a := range cp.Answers {
		if a.ID == int(idA) {
			t.Fatalf("moved object %d still answers at q=105", idA)
		}
	}

	// Delete B via query param.
	w = doJSON(t, s, http.MethodDelete, fmt.Sprintf("/v1/objects?id=%d", idB), "")
	if w.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", w.Code, w.Body)
	}
	json.Unmarshal(w.Body.Bytes(), &resp)
	if resp.Deleted != 1 || resp.Objects != 4 {
		t.Fatalf("delete response: %+v", resp)
	}

	// (Unknown IDs, malformed payloads and the storeless 501 are rows of
	// TestBackendParity, asserted on every backend.)
}

// TestDatasetReloadIsDurable reloads through the store, restarts the server
// over the same directory, and expects the reloaded dataset and a strictly
// higher version to survive.
// TestObjectsNonFiniteBodies pins the exact 400 body a non-finite number in
// a POST /v1/objects spec renders, by field. JSON cannot spell NaN or ±Inf,
// so the specs go through toOp directly, the step a decoded body takes, and
// the error through the server's writeError.
func TestObjectsNonFiniteBodies(t *testing.T) {
	s := storeBackedServer(t, t.TempDir(), 1)
	defer s.Close()
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		spec objectSpec
		i    int
		body string
	}{
		{objectSpec{Hist: &histSpec{Edges: []float64{0, 1, inf, 3}, Weights: []float64{1, 1, 1}}}, 2,
			errJSON(`parameter \"objects[2].hist.edges[2]\": +Inf is not a finite number`)},
		{objectSpec{Hist: &histSpec{Edges: []float64{0, 1, 2}, Weights: []float64{1, nan}}}, 0,
			errJSON(`parameter \"objects[0].hist.weights[1]\": NaN is not a finite number`)},
		{objectSpec{Hist: &histSpec{Edges: []float64{-inf, 1}, Weights: []float64{nan}}}, 11,
			errJSON(`parameter \"objects[11].hist.edges[0]\": -Inf is not a finite number`)},
		{objectSpec{Uniform: &uniformSpec{Lo: 0, Hi: inf}}, 3,
			errJSON(`parameter \"objects[3].uniform.hi\": +Inf is not a finite number`)},
		{objectSpec{Disk: &diskSpec{X: 1, Y: nan, R: 1}}, 1,
			errJSON(`parameter \"objects[1].disk.y\": NaN is not a finite number`)},
	}
	for _, c := range cases {
		_, err := c.spec.toOp(c.i)
		if err == nil {
			t.Fatalf("spec %d accepted, want %s", c.i, c.body)
		}
		w := httptest.NewRecorder()
		s.writeError(w, err)
		if w.Code != http.StatusBadRequest || w.Body.String() != c.body {
			t.Errorf("spec %d: %d %q, want 400 %q", c.i, w.Code, w.Body.String(), c.body)
		}
	}
}

func TestDatasetReloadIsDurable(t *testing.T) {
	dir := t.TempDir()
	s := storeBackedServer(t, dir, 2)

	var lines strings.Builder
	for i := 0; i < 7; i++ {
		fmt.Fprintf(&lines, "%d %d\n", 100*i, 100*i+20)
	}
	w := doJSON(t, s, http.MethodPost, "/v1/dataset?source=reload-test", lines.String())
	if w.Code != http.StatusOK {
		t.Fatalf("reload: %d %s", w.Code, w.Body)
	}
	var info datasetResponse
	json.Unmarshal(w.Body.Bytes(), &info)
	if info.Objects != 7 || info.Version != 2 {
		t.Fatalf("reload info: %+v", info)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same data dir: no Dataset given, contents come back.
	re := storeBackedServer(t, dir, 0)
	defer re.Close()
	snap := re.Snapshot()
	if snap.Objects != 7 {
		t.Fatalf("recovered %d objects", snap.Objects)
	}
	if snap.Version != 2 {
		t.Fatalf("recovered version %d", snap.Version)
	}
	// The next mutation continues the version sequence.
	w = doJSON(t, re, http.MethodPost, "/v1/objects", `{"objects":[{"uniform":{"lo":1,"hi":2}}]}`)
	var resp objectsResponse
	json.Unmarshal(w.Body.Bytes(), &resp)
	if resp.Version != 3 {
		t.Fatalf("post-restart commit version %d", resp.Version)
	}
}

// TestDisksOnlyStoreIsNotTreatedAsEmpty guards against a seed dataset
// truncating (and destroying) a store that holds only 2-D objects: such a
// store counts as populated, so the server serves it (with an empty 1-D
// dataset) and the seed is ignored.
func TestDisksOnlyStoreIsNotTreatedAsEmpty(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply([]store.Op{
		store.InsertDisk(geom.Circle{Center: geom.Point{X: 1, Y: 2}, Radius: 3}),
	}); err != nil {
		t.Fatal(err)
	}

	seed := uncertain.NewDataset([]pdf.PDF{pdf.MustUniform(0, 1)})
	s, err := New(Config{Store: st, Dataset: seed, QueueTimeout: -1})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	defer s.Close()
	v := st.View()
	if len(v.Disks) != 1 {
		t.Fatalf("seed dataset destroyed the stored disks: %d left", len(v.Disks))
	}
	if v.Dataset.Len() != 0 {
		t.Fatalf("seed dataset was applied over a populated store: %d 1-D objects", v.Dataset.Len())
	}
}

func TestHealthzDrainsNotReady(t *testing.T) {
	s := storeBackedServer(t, t.TempDir(), 2)
	defer s.Close()

	if w := doJSON(t, s, http.MethodGet, "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", w.Code)
	}
	s.Drain()
	w := doJSON(t, s, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "draining") {
		t.Fatalf("healthz body: %s", w.Body)
	}
	// Queries keep working while draining.
	if w := doJSON(t, s, http.MethodGet, "/v1/cpnn?q=5", ""); w.Code != http.StatusOK {
		t.Fatalf("cpnn during drain: %d %s", w.Code, w.Body)
	}
}

// TestCloseCheckpointsStore verifies the graceful-shutdown contract: Close
// checkpoints (leaving an empty WAL) and closes the store.
func TestCloseCheckpointsStore(t *testing.T) {
	dir := t.TempDir()
	s := storeBackedServer(t, dir, 4)
	doJSON(t, s, http.MethodPost, "/v1/objects", `{"objects":[{"uniform":{"lo":0,"hi":1}}]}`)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stats := st.Stats()
	if stats.WALBytes != 0 {
		t.Fatalf("WAL not empty after graceful close: %d bytes", stats.WALBytes)
	}
	if stats.Objects1D != 5 {
		t.Fatalf("recovered %d objects", stats.Objects1D)
	}
}

// TestStoreMetricsExposed checks the durable-store counters appear on
// /metrics in store mode and stay absent otherwise.
func TestStoreMetricsExposed(t *testing.T) {
	s := storeBackedServer(t, t.TempDir(), 2)
	defer s.Close()
	doJSON(t, s, http.MethodPost, "/v1/objects", `{"objects":[{"uniform":{"lo":0,"hi":1}}]}`)
	body := doJSON(t, s, http.MethodGet, "/metrics", "").Body.String()
	for _, want := range []string{
		"cpnn_server_store_ops_applied_total",
		"cpnn_server_store_commits_total",
		"cpnn_server_store_wal_bytes",
		"cpnn_server_store_checkpoints_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %s:\n%s", want, body)
		}
	}

	plain := testServer(t, Config{})
	body = doJSON(t, plain, http.MethodGet, "/metrics", "").Body.String()
	if strings.Contains(body, "store_ops_applied_total") {
		t.Fatal("storeless /metrics exposes store counters")
	}
}
