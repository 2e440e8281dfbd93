package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// strategyRequests are the three surfaces that read a strategy, each as
// (method, path, body) for the given strategy value; "" omits it.
func strategyRequests(strategy string) [][3]string {
	param, field := "", ""
	if strategy != "" {
		param, field = "&strategy="+strategy, `,"strategy":"`+strategy+`"`
	}
	return [][3]string{
		{http.MethodGet, "/v1/cpnn?q=7&p=0.3&all=1" + param, ""},
		{http.MethodPost, "/v1/batch", `{"queries":[7,22.5,7],"p":0.3` + field + `}`},
		{http.MethodPost, "/v1/monitors", `{"kind":"cpnn","q":7,"p":0.3` + field + `}`},
	}
}

// TestStrategyBaselinesRejected: the server runs the paper's method only.
// The baselines, on every surface that reads a strategy, answer 400 with a
// body naming cpnn-query, which runs them, and register no monitor.
func TestStrategyBaselinesRejected(t *testing.T) {
	s := storeBackedServer(t, t.TempDir(), 4)
	defer s.Close()
	for _, strategy := range []string{"basic", "refine"} {
		for _, req := range strategyRequests(strategy) {
			w := doJSON(t, s, req[0], req[1], req[2])
			if w.Code != http.StatusBadRequest || w.Body.String() != notServed(strategy) {
				t.Errorf("%s %s %s: %d %s, want 400 %s", req[0], req[1], req[2], w.Code, w.Body, notServed(strategy))
			}
		}
	}
	if n := len(s.monitors.List()); n != 0 {
		t.Errorf("rejected registrations left %d monitors", n)
	}
}

// TestStrategyVRSameAsOmitted: "vr" on each surface answers byte for byte
// what the same request answers without a strategy. Each side runs on a
// server of its own, so both see the same cache state and monitor IDs; the
// batch envelope's wall_ms, a timing, is the one field zeroed.
func TestStrategyVRSameAsOmitted(t *testing.T) {
	vr, omitted := storeBackedServer(t, t.TempDir(), 4), storeBackedServer(t, t.TempDir(), 4)
	defer vr.Close()
	defer omitted.Close()
	withVR, without := strategyRequests("vr"), strategyRequests("")
	for i := range withVR {
		a := doJSON(t, vr, withVR[i][0], withVR[i][1], withVR[i][2])
		b := doJSON(t, omitted, without[i][0], without[i][1], without[i][2])
		if a.Code != http.StatusOK || b.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d with vr, %d without (%s / %s)", withVR[i][0], withVR[i][1], a.Code, b.Code, a.Body, b.Body)
		}
		got, want := a.Body.Bytes(), b.Body.Bytes()
		if withVR[i][1] == "/v1/batch" {
			got, want = untimedBatch(t, got), untimedBatch(t, want)
		}
		if string(got) != string(want) {
			t.Errorf("%s %s: with vr\n%s\nwithout\n%s", withVR[i][0], withVR[i][1], got, want)
		}
	}
}

// untimedBatch re-renders a batch body with wall_ms zeroed.
func untimedBatch(t *testing.T, body []byte) []byte {
	t.Helper()
	var resp batchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	resp.WallMs = 0
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
