package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/pdf"
	"repro/internal/uncertain"
)

func TestMonitorsRequireStore(t *testing.T) {
	s, err := New(Config{Dataset: uncertain.NewDataset([]pdf.PDF{pdf.MustUniform(0, 10)})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, req := range [][2]string{
		{http.MethodPost, "/v1/monitors"},
		{http.MethodGet, "/v1/subscribe"},
	} {
		w := doJSON(t, s, req[0], req[1], "")
		if w.Code != http.StatusNotImplemented {
			t.Fatalf("%s %s without store: %d, want 501", req[0], req[1], w.Code)
		}
	}
}

func TestMonitorLifecycle(t *testing.T) {
	s := storeBackedServer(t, t.TempDir(), 4)
	defer s.Close()

	// Register a standing C-PNN near the seed objects (regions [0,5]..[30,35]).
	w := doJSON(t, s, http.MethodPost, "/v1/monitors", `{"kind":"cpnn","q":7,"p":0.3,"delta":0.01}`)
	if w.Code != http.StatusOK {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	var reg monitorJSON
	if err := json.Unmarshal(w.Body.Bytes(), &reg); err != nil {
		t.Fatal(err)
	}
	if reg.ID == 0 || reg.Kind != "cpnn" || len(reg.Answer) == 0 {
		t.Fatalf("registration = %+v", reg)
	}

	// List shows it.
	w = doJSON(t, s, http.MethodGet, "/v1/monitors", "")
	var list struct {
		Monitors []monitorJSON `json:"monitors"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Monitors) != 1 || list.Monitors[0].ID != reg.ID {
		t.Fatalf("list = %+v", list)
	}

	// A relevant object change bumps the monitor's answer version.
	w = doJSON(t, s, http.MethodPost, "/v1/objects", `{"objects":[{"uniform":{"lo":6,"hi":8}}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", w.Code, w.Body)
	}
	if err := s.monitors.Sync(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	w = doJSON(t, s, http.MethodGet, "/v1/monitors", "")
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if got := list.Monitors[0]; got.Version <= reg.Version || string(got.Answer) == string(reg.Answer) {
		t.Fatalf("answer did not advance: %+v vs %+v", got, reg)
	}

	// Delete it; a second delete 404s.
	w = doJSON(t, s, http.MethodDelete, fmt.Sprintf("/v1/monitors?id=%d", reg.ID), "")
	if w.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", w.Code, w.Body)
	}
	w = doJSON(t, s, http.MethodDelete, fmt.Sprintf("/v1/monitors?id=%d", reg.ID), "")
	if w.Code != http.StatusNotFound {
		t.Fatalf("double delete: %d, want 404", w.Code)
	}

	// Malformed registrations are 400s; an explicit p:0 is invalid (P must
	// be in (0,1]), not silently defaulted.
	for _, body := range []string{
		``,
		`{`,
		`{"kind":"nope","q":1}`,
		`{"kind":"cpnn"}{"kind":"cpnn"}`,
		`{"kind":"cpnn","q":1,"p":7}`,
		`{"kind":"cpnn","q":1,"p":0}`,
		`{"kind":"knn","q":1}`,
		`{"kind":"cpnn","q":1,"unknown_field":3}`,
		`{"kind":"cpnn","q":1e999}`,
	} {
		if w := doJSON(t, s, http.MethodPost, "/v1/monitors", body); w.Code != http.StatusBadRequest {
			t.Fatalf("body %q: %d, want 400", body, w.Code)
		}
	}

	// An explicit delta:0 is valid and honored — not coerced to the 0.01
	// default (only an omitted delta defaults).
	w = doJSON(t, s, http.MethodPost, "/v1/monitors", `{"kind":"cpnn","q":7,"p":0.3,"delta":0}`)
	if w.Code != http.StatusOK {
		t.Fatalf("delta:0 registration: %d %s", w.Code, w.Body)
	}
	var zreg monitorJSON
	if err := json.Unmarshal(w.Body.Bytes(), &zreg); err != nil {
		t.Fatal(err)
	}
	if st, ok := s.monitors.Get(zreg.ID); !ok || st.Spec.Constraint.Delta != 0 {
		t.Fatalf("explicit delta:0 coerced: %+v", st)
	}
}

// TestSubscribeSSE drives the full SSE flow over a real connection:
// snapshot event on connect, update event after a relevant commit, stream
// closed by Drain.
func TestSubscribeSSE(t *testing.T) {
	s := storeBackedServer(t, t.TempDir(), 4)
	defer s.Close()

	w := doJSON(t, s, http.MethodPost, "/v1/monitors", `{"kind":"cpnn","q":7}`)
	if w.Code != http.StatusOK {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	var reg monitorJSON
	if err := json.Unmarshal(w.Body.Bytes(), &reg); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/subscribe?ids=" + fmt.Sprint(reg.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := make(chan [2]string, 16)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var event, data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "" && event != "":
				events <- [2]string{event, data}
				event, data = "", ""
			}
		}
	}()
	readEvent := func(wantType string) monitorJSON {
		t.Helper()
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream closed waiting for %q", wantType)
			}
			if ev[0] != wantType {
				t.Fatalf("event %q (%s), want %q", ev[0], ev[1], wantType)
			}
			var out monitorJSON
			if err := json.Unmarshal([]byte(ev[1]), &out); err != nil {
				t.Fatalf("bad %s payload %q: %v", wantType, ev[1], err)
			}
			return out
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %q", wantType)
			return monitorJSON{}
		}
	}

	snap := readEvent("snapshot")
	if snap.ID != reg.ID || string(snap.Answer) != string(reg.Answer) {
		t.Fatalf("snapshot %+v != registration %+v", snap, reg)
	}

	// A relevant change pushes an update with the fresh answer.
	if w := doJSON(t, s, http.MethodPost, "/v1/objects",
		`{"objects":[{"uniform":{"lo":6,"hi":8}}]}`); w.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", w.Code, w.Body)
	}
	upd := readEvent("update")
	if upd.ID != reg.ID || upd.Version <= reg.Version {
		t.Fatalf("update = %+v", upd)
	}
	st, ok := s.monitors.Get(reg.ID)
	if !ok || string(st.Answer) != string(upd.Answer) {
		t.Fatalf("pushed answer %s != stored %s", upd.Answer, st.Answer)
	}

	// Drain ends the stream promptly (Shutdown must not hang on SSE).
	s.Drain()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-events:
			if !ok {
				return // stream closed: drain worked
			}
		case <-deadline:
			t.Fatal("SSE stream survived Drain")
		}
	}
}

// TestSubscribeWhileDraining: new subscriptions during drain are refused
// with a Retry-After.
func TestSubscribeWhileDraining(t *testing.T) {
	s := storeBackedServer(t, t.TempDir(), 2)
	defer s.Close()
	s.Drain()
	w := doJSON(t, s, http.MethodGet, "/v1/subscribe", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("subscribe while draining: %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("draining 503 lacks Retry-After")
	}
}

// TestHealthzStoreVersion: /healthz carries the durable store version and
// seq alongside the snapshot version, and the draining 503 sets Retry-After.
func TestHealthzStoreVersion(t *testing.T) {
	s := storeBackedServer(t, t.TempDir(), 2)
	defer s.Close()

	w := doJSON(t, s, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	sv, ok := body["store_version"].(float64)
	if !ok {
		t.Fatalf("healthz lacks store_version: %s", w.Body)
	}
	if _, ok := body["store_seq"]; !ok {
		t.Fatalf("healthz lacks store_seq: %s", w.Body)
	}
	if snapV := body["version"].(float64); sv != snapV {
		t.Fatalf("store_version %g != snapshot version %g at rest", sv, snapV)
	}

	s.Drain()
	w = doJSON(t, s, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("draining healthz lacks Retry-After")
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "draining" {
		t.Fatalf("draining body = %s", w.Body)
	}
	if _, ok := body["store_version"]; !ok {
		t.Fatalf("draining healthz lacks store_version: %s", w.Body)
	}
}

// TestStorelessHealthzUnchanged: without a store the healthz body must not
// grow store fields (clients key on their presence).
func TestStorelessHealthzUnchanged(t *testing.T) {
	s, err := New(Config{Dataset: uncertain.NewDataset([]pdf.PDF{pdf.MustUniform(0, 10)})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := doJSON(t, s, http.MethodGet, "/healthz", "")
	var body map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if _, ok := body["store_version"]; ok {
		t.Fatalf("storeless healthz grew store_version: %s", w.Body)
	}
}

// TestMetricsMonitorBlock: /metrics exposes the monitor counters in store
// mode.
func TestMetricsMonitorBlock(t *testing.T) {
	s := storeBackedServer(t, t.TempDir(), 2)
	defer s.Close()
	if w := doJSON(t, s, http.MethodPost, "/v1/monitors", `{"kind":"pnn","q":7}`); w.Code != http.StatusOK {
		t.Fatalf("register: %d", w.Code)
	}
	w := doJSON(t, s, http.MethodGet, "/metrics", "")
	out := w.Body.String()
	for _, want := range []string{
		"cpnn_server_monitor_active 1",
		"cpnn_server_monitor_reevals_total",
		"cpnn_server_monitor_pruned_total",
		"cpnn_server_monitor_early_exit_total",
		"cpnn_server_monitor_state_bytes",
		"cpnn_server_monitor_state_evictions_total",
		"cpnn_server_monitor_folds_reused_total",
		"cpnn_server_store_wal_records",
		"cpnn_server_store_feed_subscribers",
		`cpnn_server_requests_total{endpoint="monitors"}`,
		`cpnn_server_requests_total{endpoint="subscribe"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output lacks %q:\n%s", want, out)
		}
	}
}

// FuzzMonitorRequest hardens the registration decoder: arbitrary bodies must
// either produce a validated spec or a clean error — never a panic, and
// never a spec that fails its own Validate.
func FuzzMonitorRequest(f *testing.F) {
	f.Add([]byte(`{"kind":"cpnn","q":7,"p":0.3,"delta":0.01}`))
	f.Add([]byte(`{"kind":"pnn","q":-12.5}`))
	f.Add([]byte(`{"kind":"knn","q":3,"p":0.5,"k":2}`))
	f.Add([]byte(`{"kind":"cpnn","q":1e308,"strategy":"vr"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kind":"cpnn","q":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeMonitorRequest(data)
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("decoded spec %+v fails validation: %v (body %q)", spec, verr, data)
		}
	})
}
