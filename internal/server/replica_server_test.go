package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/pdf"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/uncertain"
)

// replicaPair boots a store-backed primary server with a replication
// listener and a replica server following it, and waits for catch-up.
// Teardown order matches cpnn-serve: follower, then listeners, then servers.
func replicaPair(t *testing.T, seedObjects int) (primary, rep *Server) {
	t.Helper()
	pdfs := make([]pdf.PDF, seedObjects)
	for i := range pdfs {
		pdfs[i] = pdf.MustUniform(float64(10*i), float64(10*i)+5)
	}
	return replicaPairOver(t, pdfs, Config{QueueTimeout: -1})
}

// replicaPairOver is replicaPair over caller-chosen objects; base carries
// the settings both servers share.
func replicaPairOver(t *testing.T, pdfs []pdf.PDF, base Config) (primary, rep *Server) {
	t.Helper()
	pst, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	repl, err := replica.StartServer(replica.ServerConfig{
		Store: pst, Addr: "127.0.0.1:0", AdvertiseHTTP: "http://primary.test:8080",
	})
	if err != nil {
		pst.Close()
		t.Fatal(err)
	}
	pcfg := base
	pcfg.Store, pcfg.Replication = pst, repl
	pcfg.Dataset, pcfg.Source = uncertain.NewDataset(pdfs), "seed"
	primary, err = New(pcfg)
	if err != nil {
		repl.Close()
		pst.Close()
		t.Fatal(err)
	}

	fst, err := store.OpenFollower(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := replica.StartFollower(replica.FollowerConfig{
		Store: fst, Primary: repl.Addr(),
		BackoffMin: 10 * time.Millisecond, BackoffMax: 200 * time.Millisecond,
	})
	if err != nil {
		fst.Close()
		t.Fatal(err)
	}
	rcfg := base
	rcfg.Replica = fol
	rep, err = New(rcfg)
	if err != nil {
		fol.Close()
		fst.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		fol.Close()
		repl.Close()
		rep.Close()
		primary.Close()
	})
	deadline := time.Now().Add(15 * time.Second)
	for !fol.CaughtUp() {
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", fol.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// CaughtUp can report a catch-up to a primary position heard before the
	// seed commit; wait until the replica serves that commit too.
	waitReplicaVersion(t, rep, primary.Snapshot().Version)
	return primary, rep
}

// waitReplicaVersion polls until the replica serves at least version v.
func waitReplicaVersion(t *testing.T, rep *Server, v uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for rep.Snapshot().Version < v {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at version %d, want >= %d", rep.Snapshot().Version, v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestReplicaServesIdenticalAnswers(t *testing.T) {
	primary, rep := replicaPair(t, 5)

	// Mutate through the primary's HTTP API; the replica must converge and
	// then serve the byte-identical response body for the same query.
	w := doJSON(t, primary, http.MethodPost, "/v1/objects",
		`{"objects":[{"uniform":{"lo":12,"hi":14}},{"hist":{"edges":[20,21,22],"weights":[2,1]}}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("primary insert: %d %s", w.Code, w.Body)
	}
	waitReplicaVersion(t, rep, primary.Snapshot().Version)

	for _, path := range []string{
		"/v1/cpnn?q=13&p=0.3&delta=0.01",
		"/v1/pnn?q=13",
		"/v1/knn?q=13&k=2&p=0.3",
	} {
		pw := doJSON(t, primary, http.MethodGet, path, "")
		rw := doJSON(t, rep, http.MethodGet, path, "")
		if pw.Code != http.StatusOK || rw.Code != http.StatusOK {
			t.Fatalf("%s: primary %d, replica %d (%s)", path, pw.Code, rw.Code, rw.Body)
		}
		if pw.Body.String() != rw.Body.String() {
			t.Fatalf("%s diverged:\nprimary: %s\nreplica: %s", path, pw.Body, rw.Body)
		}
	}
}

func TestReplicaRedirectsWrites(t *testing.T) {
	_, rep := replicaPair(t, 3)

	for _, tc := range []struct {
		method, path, body string
	}{
		{http.MethodPost, "/v1/objects", `{"objects":[{"uniform":{"lo":1,"hi":2}}]}`},
		{http.MethodDelete, "/v1/objects?id=1", ""},
		{http.MethodPost, "/v1/dataset", "1 2\n"},
	} {
		w := doJSON(t, rep, tc.method, tc.path, tc.body)
		if w.Code != http.StatusTemporaryRedirect {
			t.Fatalf("%s %s: %d %s, want 307", tc.method, tc.path, w.Code, w.Body)
		}
		loc := w.Header().Get("Location")
		if !strings.HasPrefix(loc, "http://primary.test:8080/") || !strings.Contains(loc, strings.Split(tc.path, "?")[0]) {
			t.Fatalf("%s %s: Location = %q", tc.method, tc.path, loc)
		}
	}

	// Reads are unaffected.
	if w := doJSON(t, rep, http.MethodGet, "/v1/dataset", ""); w.Code != http.StatusOK {
		t.Fatalf("GET /v1/dataset on replica: %d", w.Code)
	}
}

func TestReplicaGatesUntilCaughtUp(t *testing.T) {
	// A follower of an unreachable primary can never catch up: every read
	// answers 503 + Retry-After and /healthz reports "syncing".
	fst, err := store.OpenFollower(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := replica.StartFollower(replica.FollowerConfig{
		Store: fst, Primary: "127.0.0.1:1", // nothing listens there
		DialTimeout: 50 * time.Millisecond,
		BackoffMin:  10 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
	})
	if err != nil {
		fst.Close()
		t.Fatal(err)
	}
	rep, err := New(Config{Replica: fol, QueueTimeout: -1})
	if err != nil {
		fol.Close()
		fst.Close()
		t.Fatal(err)
	}
	defer func() {
		fol.Close()
		rep.Close()
	}()

	for _, path := range []string{
		"/v1/cpnn?q=1&p=0.3", "/v1/pnn?q=1", "/v1/knn?q=1&k=1",
		"/v1/monitors", "/v1/subscribe",
	} {
		w := doJSON(t, rep, http.MethodGet, path, "")
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("GET %s pre-catch-up: %d, want 503", path, w.Code)
		}
		if w.Header().Get("Retry-After") == "" {
			t.Fatalf("GET %s: 503 without Retry-After", path)
		}
	}
	w := doJSON(t, rep, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz pre-catch-up: %d, want 503", w.Code)
	}
	var hz struct {
		Status string `json:"status"`
		Role   string `json:"role"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "syncing" || hz.Role != "follower" {
		t.Fatalf("healthz = %+v", hz)
	}
	// No advertised primary yet: writes are refused, not redirected.
	if w := doJSON(t, rep, http.MethodPost, "/v1/objects", `{"objects":[{"uniform":{"lo":1,"hi":2}}]}`); w.Code != http.StatusForbidden {
		t.Fatalf("write without advertised primary: %d, want 403", w.Code)
	}
}

func TestReplicaHealthAndMetrics(t *testing.T) {
	primary, rep := replicaPair(t, 3)

	// Primary: role + replication_server block, replication_* metrics.
	w := doJSON(t, primary, http.MethodGet, "/healthz", "")
	var phz map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &phz); err != nil {
		t.Fatal(err)
	}
	if phz["role"] != "primary" {
		t.Fatalf("primary healthz role = %v", phz["role"])
	}
	rs, ok := phz["replication_server"].(map[string]any)
	if !ok || rs["followers"].(float64) != 1 {
		t.Fatalf("primary healthz replication_server = %v", phz["replication_server"])
	}
	pm := doJSON(t, primary, http.MethodGet, "/metrics", "").Body.String()
	if !strings.Contains(pm, "cpnn_server_replication_followers 1") {
		t.Fatalf("primary metrics missing replication family:\n%s", pm)
	}

	// Replica: role, lag block, replica_* metrics, caught-up gauge set.
	w = doJSON(t, rep, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("replica healthz: %d %s", w.Code, w.Body)
	}
	var rhz map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &rhz); err != nil {
		t.Fatal(err)
	}
	if rhz["role"] != "follower" {
		t.Fatalf("replica healthz role = %v", rhz["role"])
	}
	repState, ok := rhz["replication"].(map[string]any)
	if !ok || repState["caught_up"] != true {
		t.Fatalf("replica healthz replication = %v", rhz["replication"])
	}
	for _, key := range []string{"lag_versions", "lag_seconds", "lag_bytes", "source"} {
		if _, present := repState[key]; !present {
			t.Fatalf("replica healthz replication missing %q: %v", key, repState)
		}
	}
	rm := doJSON(t, rep, http.MethodGet, "/metrics", "").Body.String()
	for _, needle := range []string{
		"cpnn_server_replica_caught_up 1",
		"cpnn_server_replica_lag_versions",
		"cpnn_server_replica_records_applied_total",
	} {
		if !strings.Contains(rm, needle) {
			t.Fatalf("replica metrics missing %q:\n%s", needle, rm)
		}
	}
}

func TestReplicaMonitorsRideReplayedFeed(t *testing.T) {
	primary, rep := replicaPair(t, 3)

	// Register a standing query on the REPLICA; commit through the PRIMARY;
	// the replica's monitor must observe the change via the replicated feed.
	w := doJSON(t, rep, http.MethodPost, "/v1/monitors", `{"kind":"cpnn","q":102,"p":0.3,"delta":0.01}`)
	if w.Code != http.StatusOK {
		t.Fatalf("register on replica: %d %s", w.Code, w.Body)
	}
	var reg struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &reg); err != nil {
		t.Fatal(err)
	}

	if w := doJSON(t, primary, http.MethodPost, "/v1/objects",
		`{"objects":[{"uniform":{"lo":101,"hi":103}}]}`); w.Code != http.StatusOK {
		t.Fatalf("primary insert: %d %s", w.Code, w.Body)
	}
	target := primary.Snapshot().Version
	waitReplicaVersion(t, rep, target)

	deadline := time.Now().Add(15 * time.Second)
	for {
		w := doJSON(t, rep, http.MethodGet, "/v1/monitors", "")
		var list struct {
			Monitors []struct {
				ID      uint64          `json:"id"`
				Version uint64          `json:"version"`
				Answer  json.RawMessage `json:"answer"`
			} `json:"monitors"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Monitors) == 1 && list.Monitors[0].Version >= target &&
			len(list.Monitors[0].Answer) > len("[]") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica monitor %d never saw the replicated insert: %s", reg.ID, w.Body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
