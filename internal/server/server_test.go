package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pdf"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// testDataset returns a small clustered dataset that still produces
// multi-candidate queries.
func testDataset(t testing.TB, seed int64) *uncertain.Dataset {
	t.Helper()
	ds, err := uncertain.GenerateUniform(uncertain.GenOptions{
		N:       2000,
		Domain:  1000,
		MeanLen: 4,
		MinLen:  0.5,
		MaxLen:  25,
		Seed:    seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Dataset == nil {
		cfg.Dataset = testDataset(t, 7)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// get performs one request against the handler without a network hop.
func get(t testing.TB, s *Server, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func TestCPNNHandlerMatchesEngine(t *testing.T) {
	ds := testDataset(t, 7)
	s := testServer(t, Config{Dataset: ds})
	rec := get(t, s, "/v1/cpnn?q=500&p=0.2&delta=0.01")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp cpnnResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}

	eng, err := core.NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.CPNN(500, verify.Constraint{P: 0.2, Delta: 0.01}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != len(want.Answers) {
		t.Fatalf("answers = %d, want %d", len(resp.Answers), len(want.Answers))
	}
	for i, a := range want.Answers {
		got := resp.Answers[i]
		if got.ID != a.ID || got.L != a.Bounds.L || got.U != a.Bounds.U {
			t.Errorf("answer %d = %+v, want %+v", i, got, a)
		}
	}
	if resp.Stats.Candidates != want.Stats.Candidates {
		t.Errorf("candidates = %d, want %d", resp.Stats.Candidates, want.Stats.Candidates)
	}
	if resp.Version != 1 {
		t.Errorf("version = %d, want 1", resp.Version)
	}
}

// TestCacheByteIdentity is the acceptance check: a cached response is
// byte-identical to a fresh evaluation of the same key, across all cached
// endpoints and across a cache-disabled server.
func TestCacheByteIdentity(t *testing.T) {
	ds := testDataset(t, 7)
	cached := testServer(t, Config{Dataset: ds})
	uncached := testServer(t, Config{Dataset: ds, CacheEntries: -1})

	urls := []string{
		"/v1/cpnn?q=500&p=0.2&delta=0.01",
		"/v1/cpnn?q=500&p=0.2&delta=0.01&strategy=vr&all=1",
		"/v1/pnn?q=313.7",
		"/v1/knn?q=250&k=3&p=0.1",
	}
	for _, url := range urls {
		first := get(t, cached, url)
		if first.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, first.Code, first.Body)
		}
		if src := first.Header().Get("X-Cache"); src != "miss" {
			t.Errorf("%s: first X-Cache = %q, want miss", url, src)
		}
		second := get(t, cached, url)
		if src := second.Header().Get("X-Cache"); src != "hit" {
			t.Errorf("%s: second X-Cache = %q, want hit", url, src)
		}
		if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Errorf("%s: cached body differs from original", url)
		}
		fresh := get(t, uncached, url)
		if src := fresh.Header().Get("X-Cache"); src != "miss" {
			t.Errorf("%s: uncached X-Cache = %q, want miss", url, src)
		}
		if !bytes.Equal(first.Body.Bytes(), fresh.Body.Bytes()) {
			t.Errorf("%s: cached body differs from a fresh evaluation", url)
		}
	}
}

func TestQuantizationSharesEntries(t *testing.T) {
	s := testServer(t, Config{Quantum: 1})
	a := get(t, s, "/v1/cpnn?q=499.8&p=0.2")
	b := get(t, s, "/v1/cpnn?q=500.3&p=0.2")
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("status %d / %d", a.Code, b.Code)
	}
	if src := b.Header().Get("X-Cache"); src != "hit" {
		t.Errorf("neighboring query X-Cache = %q, want hit", src)
	}
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Error("snapped queries returned different bodies")
	}
	var resp cpnnResponse
	if err := json.Unmarshal(a.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Query != 500 {
		t.Errorf("evaluated query = %g, want the snapped 500", resp.Query)
	}
}

func TestInputValidation(t *testing.T) {
	s := testServer(t, Config{})
	cases := []struct {
		name string
		url  string
	}{
		{"missing q", "/v1/cpnn?p=0.3"},
		{"non-numeric q", "/v1/cpnn?q=abc"},
		{"infinite q", "/v1/cpnn?q=Inf"},
		{"P zero", "/v1/cpnn?q=1&p=0"},
		{"P above one", "/v1/cpnn?q=1&p=1.5"},
		{"negative delta", "/v1/cpnn?q=1&delta=-0.1"},
		{"delta above one", "/v1/cpnn?q=1&delta=1.5"},
		{"bad strategy", "/v1/cpnn?q=1&strategy=monte-carlo"},
		{"knn missing k", "/v1/knn?q=1&p=0.3"},
		{"knn zero k", "/v1/knn?q=1&k=0"},
		{"knn negative k", "/v1/knn?q=1&k=-2"},
		{"knn k over limit", "/v1/knn?q=1&k=101"},
		{"knn bad P", "/v1/knn?q=1&k=2&p=7"},
		{"pnn missing q", "/v1/pnn"},
	}
	for _, tc := range cases {
		rec := get(t, s, tc.url)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, rec.Code, rec.Body)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", tc.name, rec.Body)
		}
	}
	if n := s.m.clientErrors.Load(); int(n) != len(cases) {
		t.Errorf("client errors = %d, want %d", n, len(cases))
	}
	if n := s.m.evals.Load(); n != 0 {
		t.Errorf("invalid requests reached the engine %d times", n)
	}
}

func TestDatasetReloadSwapsAndInvalidates(t *testing.T) {
	s := testServer(t, Config{Dataset: testDataset(t, 7), Source: "seed7"})

	info := get(t, s, "/v1/dataset")
	var before datasetResponse
	if err := json.Unmarshal(info.Body.Bytes(), &before); err != nil {
		t.Fatal(err)
	}
	if before.Version != 1 || before.Source != "seed7" {
		t.Fatalf("initial snapshot = %+v", before)
	}

	const url = "/v1/cpnn?q=500&p=0.2"
	v1Body := get(t, s, url).Body.Bytes()

	// Serialize a different dataset and POST it.
	var buf bytes.Buffer
	if _, err := testDataset(t, 99).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/dataset?source=seed99", &buf)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("reload status %d: %s", rec.Code, rec.Body)
	}
	var after datasetResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.Version != 2 || after.Source != "seed99" {
		t.Fatalf("reloaded snapshot = %+v", after)
	}
	if s.cc.Len() != 0 {
		t.Errorf("cache holds %d entries after reload", s.cc.Len())
	}

	// The same query now misses the cache and answers from the new dataset.
	fresh := get(t, s, url)
	if src := fresh.Header().Get("X-Cache"); src != "miss" {
		t.Errorf("post-reload X-Cache = %q, want miss", src)
	}
	var resp cpnnResponse
	if err := json.Unmarshal(fresh.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != 2 {
		t.Errorf("post-reload version = %d, want 2", resp.Version)
	}
	if bytes.Equal(v1Body, fresh.Body.Bytes()) {
		t.Error("reload did not change the served result")
	}
}

func TestDatasetReloadRejectsBadInput(t *testing.T) {
	s := testServer(t, Config{})
	post := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/dataset", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec
	}
	if rec := post("not a dataset"); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", rec.Code)
	}
	if rec := post(""); rec.Code != http.StatusBadRequest {
		t.Errorf("empty body: status %d, want 400", rec.Code)
	}
	if rec := post("5 1\n"); rec.Code != http.StatusBadRequest {
		t.Errorf("inverted interval: status %d, want 400", rec.Code)
	}
	if got := s.Snapshot().Version; got != 1 {
		t.Errorf("failed reloads bumped version to %d", got)
	}
}

// TestReloadAtomicityUnderLoad hammers the query path while the dataset is
// swapped repeatedly. Every response must be internally consistent with
// exactly one snapshot: its version determines which dataset it was computed
// against, and its body must byte-match the precomputed answer for that
// dataset. Datasets alternate A (odd versions) / B (even versions).
func TestReloadAtomicityUnderLoad(t *testing.T) {
	dsA := testDataset(t, 7)
	dsB := testDataset(t, 99)
	s := testServer(t, Config{Dataset: dsA})

	const url = "/v1/cpnn?q=500&p=0.2&delta=0.01"

	// Precompute the expected answer sets straight from the engines.
	expect := map[bool][]answerJSON{} // key: version is odd → dataset A
	for odd, ds := range map[bool]*uncertain.Dataset{true: dsA, false: dsB} {
		eng, err := core.NewEngine(ds)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.CPNN(500, verify.Constraint{P: 0.2, Delta: 0.01}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		expect[odd] = toAnswers(res.Answers, &Snapshot{})
	}
	if fmt.Sprint(expect[true]) == fmt.Sprint(expect[false]) {
		t.Fatal("test needs datasets with different answers at q=500")
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := get(t, s, url)
				if rec.Code != http.StatusOK {
					select {
					case errs <- fmt.Errorf("status %d: %s", rec.Code, rec.Body):
					default:
					}
					return
				}
				var resp cpnnResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				want := expect[resp.Version%2 == 1]
				if fmt.Sprint(resp.Answers) != fmt.Sprint(want) {
					select {
					case errs <- fmt.Errorf("version %d served torn answers %v, want %v",
						resp.Version, resp.Answers, want):
					default:
					}
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		ds := dsB
		if i%2 == 1 {
			ds = dsA
		}
		if _, err := s.Reload(ds, "swap"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got := s.Snapshot().Version; got != 11 {
		t.Errorf("final version = %d, want 11", got)
	}
}

// TestLeaderSurvivesClientDisconnect: a singleflight leader whose client has
// already gone away must still complete its evaluation (the computation is
// detached from the request context), so the result lands in the cache for
// everyone else.
func TestLeaderSurvivesClientDisconnect(t *testing.T) {
	s := testServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is gone before the evaluation starts
	req := httptest.NewRequest(http.MethodGet, "/v1/cpnn?q=500&p=0.2", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("disconnected leader: status %d: %s", rec.Code, rec.Body)
	}
	// The abandoned leader's work is cached for the next caller.
	if src := get(t, s, "/v1/cpnn?q=500&p=0.2").Header().Get("X-Cache"); src != "hit" {
		t.Errorf("follow-up X-Cache = %q, want hit", src)
	}
}

func TestKNNEmptyAnswersIsArray(t *testing.T) {
	s := testServer(t, Config{})
	// P=1 with Delta=0 is unsatisfiable for sampled bounds: answers is empty
	// but must marshal as [], matching the other endpoints.
	rec := get(t, s, "/v1/knn?q=500&k=1&p=1&delta=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"answers":[]`) {
		t.Errorf("empty k-NN answers not an array: %s", rec.Body)
	}
}

func TestDatasetReloadTooLarge(t *testing.T) {
	s := testServer(t, Config{MaxDatasetBytes: 8})
	req := httptest.NewRequest(http.MethodPost, "/v1/dataset", strings.NewReader("1 2\n3 4\n5 6\n7 8\n"))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413 (body %s)", rec.Code, rec.Body)
	}
	if got := s.Snapshot().Version; got != 1 {
		t.Errorf("oversized reload bumped version to %d", got)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := testServer(t, Config{})
	h := get(t, s, "/healthz")
	if h.Code != http.StatusOK || !strings.Contains(h.Body.String(), `"status":"ok"`) {
		t.Fatalf("healthz = %d %s", h.Code, h.Body)
	}
	get(t, s, "/v1/cpnn?q=500&p=0.2")
	get(t, s, "/v1/cpnn?q=500&p=0.2")
	m := get(t, s, "/metrics")
	if m.Code != http.StatusOK {
		t.Fatalf("metrics status %d", m.Code)
	}
	body := m.Body.String()
	for _, want := range []string{
		`cpnn_server_requests_total{endpoint="cpnn"} 2`,
		"cpnn_server_cache_hits_total 1",
		"cpnn_server_cache_misses_total 1",
		"cpnn_server_snapshot_version 1",
		"cpnn_server_snapshot_objects 2000",
		"cpnn_server_evaluations_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	ds := testDataset(t, 7)
	if _, err := New(Config{}); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := New(Config{Dataset: uncertain.NewDataset(nil)}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := New(Config{Dataset: ds, Quantum: -1}); err == nil {
		t.Error("negative quantum accepted")
	}
	if _, err := New(Config{Dataset: ds, Quantum: math.Inf(1)}); err == nil {
		t.Error("infinite quantum accepted (would snap every query to NaN)")
	}
	if _, err := New(Config{Dataset: ds, MaxInFlight: -3}); err == nil {
		t.Error("negative max in-flight accepted")
	}

	// The serving-shape rules. Each contradictory combination of mode fields
	// is refused with its own message, before the server serves anything.
	openStore := func(t *testing.T) *store.Store {
		st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	populated := func(t *testing.T) *store.Store {
		st := openStore(t)
		ops, err := store.DatasetOps(testDataset(t, 3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Apply(ops); err != nil {
			t.Fatal(err)
		}
		return st
	}
	// A follower of a primary that is never there: it stays uncaught-up,
	// which is all a server over it needs to exist.
	follower := func(t *testing.T) *replica.Follower {
		st, err := store.OpenFollower(t.TempDir(), store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		fol, err := replica.StartFollower(replica.FollowerConfig{
			Store: st, Primary: "127.0.0.1:1",
			BackoffMin: 50 * time.Millisecond, BackoffMax: time.Second,
		})
		if err != nil {
			st.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() {
			fol.Close()
			st.Close()
		})
		return fol
	}
	router := func(t *testing.T) (*shard.Cluster, *shard.Router) {
		return clusterOver(t, []pdf.PDF{pdf.MustUniform(0, 10), pdf.MustUniform(20, 30)}, 2)
	}
	const (
		routerAlone = "server: ShardRouter cannot be combined with Dataset, Store or replication (the data lives in the shard cluster)"
		routerRole  = "server: a server is a shard router or a shard member, not both"
	)
	for _, tc := range []struct {
		name string
		cfg  func(t *testing.T) Config
		want string
	}{
		{"router with dataset", func(t *testing.T) Config {
			_, rt := router(t)
			return Config{ShardRouter: rt, Dataset: ds}
		}, routerAlone},
		{"router with store", func(t *testing.T) Config {
			_, rt := router(t)
			return Config{ShardRouter: rt, Store: openStore(t)}
		}, routerAlone},
		{"router with replica", func(t *testing.T) Config {
			_, rt := router(t)
			return Config{ShardRouter: rt, Replica: follower(t)}
		}, routerAlone},
		{"router with replication", func(t *testing.T) Config {
			_, rt := router(t)
			return Config{ShardRouter: rt, Replication: &replica.Server{}}
		}, routerAlone},
		{"router with member", func(t *testing.T) Config {
			_, rt := router(t)
			return Config{ShardRouter: rt, ShardMember: true}
		}, routerRole},
		{"cluster without router", func(t *testing.T) Config {
			cl, _ := router(t)
			return Config{ShardCluster: cl, Dataset: ds}
		}, "server: ShardCluster requires ShardRouter"},
		{"member without store", func(t *testing.T) Config {
			return Config{ShardMember: true, Dataset: ds}
		}, "server: shard member mode requires a store"},
		{"replica with dataset", func(t *testing.T) Config {
			return Config{Replica: follower(t), Dataset: ds}
		}, "server: Config.Dataset cannot be combined with Replica (the dataset comes from the primary)"},
		{"replica with foreign store", func(t *testing.T) Config {
			return Config{Replica: follower(t), Store: openStore(t)}
		}, "server: Config.Store must be the Replica's own store"},
		{"no dataset", func(t *testing.T) Config {
			return Config{Store: openStore(t)}
		}, "server: Config.Dataset is required"},
		{"empty dataset", func(t *testing.T) Config {
			return Config{Store: openStore(t), Dataset: uncertain.NewDataset(nil)}
		}, "server: initial dataset is empty"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.cfg(t))
			if err == nil {
				s.Close()
				t.Fatalf("accepted, want %q", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("error %q, want %q", err, tc.want)
			}
		})
	}

	// The shapes next to those rules are accepted, and each serves what its
	// mode says under its default source label.
	for _, tc := range []struct {
		name    string
		cfg     func(t *testing.T) Config
		objects int
		source  string
	}{
		{"member over an empty store", func(t *testing.T) Config {
			return Config{Store: openStore(t), ShardMember: true}
		}, 0, "store"},
		{"populated store with a seed dataset", func(t *testing.T) Config {
			return Config{Store: populated(t), Dataset: ds}
		}, testDataset(t, 3).Len(), "store"},
		{"seeded empty store", func(t *testing.T) Config {
			return Config{Store: openStore(t), Dataset: ds, Source: "seed"}
		}, ds.Len(), "seed"},
		{"bare dataset", func(t *testing.T) Config {
			return Config{Dataset: ds}
		}, ds.Len(), ""},
		{"replica", func(t *testing.T) Config {
			return Config{Replica: follower(t)}
		}, 0, "replica:127.0.0.1:1"},
		{"replica over its own store", func(t *testing.T) Config {
			fol := follower(t)
			return Config{Replica: fol, Store: fol.Store(), Source: "mirror"}
		}, 0, "mirror"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if snap := s.Snapshot(); snap.Objects != tc.objects || snap.Source != tc.source {
				t.Fatalf("serves %d objects from %q, want %d from %q", snap.Objects, snap.Source, tc.objects, tc.source)
			}
		})
	}
}

// TestQueueTimeoutSheds: when every worker slot stays busy past
// QueueTimeout, queued requests are shed with a 503 instead of piling up
// forever; once a slot frees, requests succeed again.
func TestQueueTimeoutSheds(t *testing.T) {
	s := testServer(t, Config{MaxInFlight: 1, QueueTimeout: 20 * time.Millisecond})
	s.slots.acquire(0) // occupy the only worker slot
	rec := get(t, s, "/v1/cpnn?q=500&p=0.2")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated pool: status %d, want 503 (body %s)", rec.Code, rec.Body)
	}
	s.slots.release()
	if rec := get(t, s, "/v1/cpnn?q=500&p=0.2"); rec.Code != http.StatusOK {
		t.Fatalf("freed pool: status %d: %s", rec.Code, rec.Body)
	}
}

// TestConcurrentMixedTraffic exercises the whole serving path — cache,
// singleflight, worker pool, metrics — under the race detector, on every
// serving shape. Where a shape's data can move, one goroutine commits while
// the others read, with a standing query registered, so /metrics and
// /healthz read the store, page-cache, monitor, replica and router numbers
// while their sources change.
func TestConcurrentMixedTraffic(t *testing.T) {
	shapes := parityBackends(t)
	// The dataset-only shape runs with a quantum and a small pool, so its
	// requests share cache entries and queue for worker slots.
	shapes[0].srv = testServer(t, Config{Quantum: 5, MaxInFlight: 4})
	// A replica's data moves when its primary commits.
	writeTo := map[string]*Server{"store": shapes[1].srv, "replica": shapes[1].srv, "router": shapes[3].srv}
	urls := []string{
		"/v1/cpnn?q=100&p=0.2",
		"/v1/cpnn?q=402&p=0.3&strategy=vr&all=1",
		"/v1/pnn?q=250",
		"/v1/knn?q=333&k=2&p=0.1",
		"/healthz",
		"/metrics",
	}
	for _, b := range shapes {
		t.Run(b.name, func(t *testing.T) {
			var wg sync.WaitGroup
			if w := writeTo[b.name]; w != nil {
				if rec := doJSON(t, b.srv, http.MethodPost, "/v1/monitors", `{"kind":"pnn","q":250}`); rec.Code != http.StatusOK {
					t.Fatalf("register: status %d: %s", rec.Code, rec.Body)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 25; i++ {
						body := fmt.Sprintf(`{"objects":[{"uniform":{"lo":%d,"hi":%d}}]}`, 240+i, 245+i)
						if rec := doJSON(t, w, http.MethodPost, "/v1/objects", body); rec.Code != http.StatusOK {
							t.Errorf("commit: status %d: %s", rec.Code, rec.Body)
							return
						}
					}
				}()
			}
			for g := 0; g < 12; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 25; i++ {
						url := urls[(g+i)%len(urls)]
						rec := get(t, b.srv, url)
						if rec.Code != http.StatusOK {
							t.Errorf("%s: status %d: %s", url, rec.Code, rec.Body)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestCacheHitRateSweep measures cache hit rate against quantization
// granularity for a uniform random query workload; the numbers land in
// EXPERIMENTS.md. Run with -v to see the table.
func TestCacheHitRateSweep(t *testing.T) {
	ds := testDataset(t, 7)
	queries := uncertain.QueryWorkload(400, 1000, 3)
	for _, quantum := range []float64{0, 0.5, 2, 10, 50} {
		s := testServer(t, Config{Dataset: ds, Quantum: quantum})
		for _, q := range queries {
			rec := get(t, s, fmt.Sprintf("/v1/cpnn?q=%g&p=0.2", q))
			if rec.Code != http.StatusOK {
				t.Fatalf("quantum %g: status %d: %s", quantum, rec.Code, rec.Body)
			}
		}
		hits, misses := s.cc.hits.Load(), s.cc.misses.Load()
		if hits+misses != int64(len(queries)) {
			t.Fatalf("quantum %g: %d hits + %d misses != %d queries", quantum, hits, misses, len(queries))
		}
		t.Logf("quantum=%-5g hit rate %5.1f%% (%d hits / %d queries)",
			quantum, 100*float64(hits)/float64(len(queries)), hits, len(queries))
	}
}
