package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/pdf"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/verify"
)

// stripVersion removes the version field from a response body so sharded
// and single-server answers (which agree on everything else) compare equal.
func stripVersion(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	delete(m, "version")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestShardServerParity locks the serving layer to the shard oracle: a
// store-backed single server and a 4-shard scatter-gather server over a
// split of the same store answer /v1/cpnn and /v1/pnn identically except
// for the version field, writes through the router continue the single
// store's ID sequence, and the shard metric families are exposed.
func TestShardServerParity(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	st, err := store.Open(srcDir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var ops []store.Op
	for i := 0; i < 40; i++ {
		lo := float64(i * 25)
		ops = append(ops, store.InsertObject(pdf.MustUniform(lo, lo+10)))
	}
	if _, err := st.Apply(ops); err != nil {
		t.Fatal(err)
	}
	nextID := st.View().NextID

	single := testServer(t, Config{Store: st, Dataset: testDataset(t, 7)})
	queries := []string{
		"/v1/cpnn?q=137.5&p=0.3&delta=0.01",
		"/v1/cpnn?q=512&p=0.5&delta=0.05&all=1",
		"/v1/pnn?q=137.5",
		"/v1/pnn?q=990",
		"/v1/knn?q=300&k=2&p=0.3&delta=0.05",
		"/v1/knn?q=512&k=3&p=0.2&all=1",
	}
	want := make([]string, len(queries))
	for i, u := range queries {
		rec := get(t, single, u)
		if rec.Code != http.StatusOK {
			t.Fatalf("single %s: status %d: %s", u, rec.Code, rec.Body.Bytes())
		}
		want[i] = stripVersion(t, rec.Body.Bytes())
	}
	if err := single.Close(); err != nil { // closes the store
		t.Fatal(err)
	}

	if _, err := shard.SplitStore(srcDir, dstDir, 4, store.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	cluster, err := shard.OpenCluster(dstDir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	rt, err := cluster.Router()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{ShardRouter: rt, ShardCluster: cluster})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i, u := range queries {
		rec := get(t, s, u)
		if rec.Code != http.StatusOK {
			t.Fatalf("sharded %s: status %d: %s", u, rec.Code, rec.Body.Bytes())
		}
		if got := stripVersion(t, rec.Body.Bytes()); got != want[i] {
			t.Fatalf("%s diverged under sharding:\n got %s\nwant %s", u, got, want[i])
		}
		// The second read must be a byte-identical cache hit.
		rec2 := get(t, s, u)
		if rec2.Header().Get("X-Cache") != "hit" {
			t.Fatalf("%s: second read was %q, want hit", u, rec2.Header().Get("X-Cache"))
		}
		if !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
			t.Fatalf("%s: cached body differs from fresh body", u)
		}
	}

	// Writes route through the router and continue the stable ID sequence.
	rec := doJSON(t, s, http.MethodPost, "/v1/objects",
		`{"objects":[{"uniform":{"lo":5,"hi":6}}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("objects POST: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var or objectsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &or); err != nil {
		t.Fatal(err)
	}
	if len(or.IDs) != 1 || or.IDs[0] != nextID {
		t.Fatalf("post-split insert got IDs %v, want [%d]", or.IDs, nextID)
	}
	if or.Objects != 41 {
		t.Fatalf("objects after insert = %d, want 41", or.Objects)
	}
	rec = doJSON(t, s, http.MethodDelete, fmt.Sprintf("/v1/objects?id=%d", or.IDs[0]), "")
	if rec.Code != http.StatusOK {
		t.Fatalf("objects DELETE: status %d: %s", rec.Code, rec.Body.Bytes())
	}

	// A deleted ID is a 404, same as the single server.
	rec = doJSON(t, s, http.MethodDelete, fmt.Sprintf("/v1/objects?id=%d", or.IDs[0]), "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("double delete: status %d, want 404", rec.Code)
	}

	// Health and metrics surface the cluster shape.
	rec = get(t, s, "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"shards":4`) {
		t.Fatalf("healthz: status %d body %s", rec.Code, rec.Body.Bytes())
	}
	rec = get(t, s, "/metrics")
	for _, want := range []string{
		"cpnn_server_shard_count 4",
		"cpnn_server_shard_fanout_fraction",
		"cpnn_server_shard_queries_total",
		"cpnn_server_shard_monitor_active 0",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("metrics output lacks %q", want)
		}
	}
}

// lockedBuffer is a log sink the monitor's workers can write while the test
// reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// downMember is a shard member whose reads fail once down is set — a killed
// member process as the router sees it.
type downMember struct {
	shard.Member
	down atomic.Bool
}

func (m *downMember) Bound(ctx context.Context, q float64, k int) (shard.BoundInfo, error) {
	if m.down.Load() {
		return shard.BoundInfo{}, errors.New("injected: down")
	}
	return m.Member.Bound(ctx, q, k)
}

func (m *downMember) Gather(ctx context.Context, q, bound float64) ([]shard.Item, uint64, error) {
	if m.down.Load() {
		return nil, 0, errors.New("injected: down")
	}
	return m.Member.Gather(ctx, q, bound)
}

// TestShardServerMonitors runs a standing query over the sharded server:
// registration answers immediately, a write through the router re-evaluates
// it, and the pushed answer matches a fresh scatter-gather evaluation. A
// dead member then makes a triggered re-evaluation fail, which must be
// counted and logged rather than go stale silently.
func TestShardServerMonitors(t *testing.T) {
	dir := t.TempDir()
	cluster, err := shard.CreateClusterCuts(dir, []float64{100, 200, 300}, nil, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	members := cluster.Members()
	shard0 := &downMember{Member: members[0]}
	members[0] = shard0
	rt, err := shard.NewRouter(shard.RouterConfig{Members: members, Cuts: cluster.Meta.Cuts, NextID: cluster.Meta.NextID})
	if err != nil {
		t.Fatal(err)
	}
	var logs lockedBuffer
	s, err := New(Config{ShardRouter: rt, ShardCluster: cluster,
		Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 12; i++ {
		lo := float64(i * 30)
		rec := doJSON(t, s, http.MethodPost, "/v1/objects",
			fmt.Sprintf(`{"objects":[{"uniform":{"lo":%g,"hi":%g}}]}`, lo, lo+8))
		if rec.Code != http.StatusOK {
			t.Fatalf("seed insert: status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}

	rec := doJSON(t, s, http.MethodPost, "/v1/monitors",
		`{"kind":"cpnn","q":150,"p":0.3,"delta":0.01}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("register: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var mj monitorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &mj); err != nil {
		t.Fatal(err)
	}

	// A write near the standing query moves its answer.
	rec = doJSON(t, s, http.MethodPost, "/v1/objects",
		`{"objects":[{"uniform":{"lo":149,"hi":151}}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("trigger insert: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if err := s.monitors.Sync(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	spec := monitor.Spec{Kind: monitor.KindCPNN, Q: 150,
		Constraint: verify.Constraint{P: 0.3, Delta: 0.01}}
	wantBody, _, _, err := rt.Evaluate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rec = get(t, s, "/v1/monitors")
	var list struct {
		Monitors []monitorJSON `json:"monitors"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Monitors) != 1 || list.Monitors[0].ID != mj.ID {
		t.Fatalf("monitor list: %s", rec.Body.Bytes())
	}
	if !bytes.Equal(list.Monitors[0].Answer, wantBody) {
		t.Fatalf("standing answer stale:\n got %s\nwant %s", list.Monitors[0].Answer, wantBody)
	}

	// A second standing query sits on shard 1 just past shard 0's extent
	// [0,98]: its nearest object [90,98] lives on shard 0. Kill shard 0, then
	// commit on shard 1 inside the query's influence interval but far enough
	// out that the candidate ball still reaches the dead shard's extent. The
	// re-evaluation cannot be answered; it must count and log.
	rec = doJSON(t, s, http.MethodPost, "/v1/monitors", `{"kind":"cpnn","q":105,"p":0.3,"delta":0.01}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("register near the cut: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &mj); err != nil {
		t.Fatal(err)
	}
	shard0.down.Store(true)
	rec = doJSON(t, s, http.MethodPost, "/v1/objects", `{"objects":[{"uniform":{"lo":112,"hi":114}}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("insert beside the dead shard: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if err := s.monitors.Sync(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	fams := parseProm(t, get(t, s, "/metrics").Body.String())
	if got := fams["cpnn_server_shard_monitor_errors_total"].samples["cpnn_server_shard_monitor_errors_total"]; got < 1 {
		t.Fatalf("cpnn_server_shard_monitor_errors_total = %g after a re-evaluation needed a dead member", got)
	}
	for _, want := range []string{"standing-query evaluation failed", fmt.Sprintf("monitor_id=%d", mj.ID), "kind=cpnn", "subsystem=monitor"} {
		if !strings.Contains(logs.String(), want) {
			t.Fatalf("evaluation-failure warning lacks %q; log:\n%s", want, logs.String())
		}
	}
}

// TestShardServerMemberWire drives the multi-process topology end to end
// over real HTTP: member servers expose /internal/shard/*, a router server
// scatters to them, a dead member degrades exactly (provably-unaffected
// queries keep serving, affected ones answer 503 + Retry-After), and member
// servers refuse direct writes.
func TestShardServerMemberWire(t *testing.T) {
	cuts := []float64{500}
	srvs, ts, stores := memberServers(t, 2)
	rt, err := shard.NewRouter(shard.RouterConfig{Members: httpMembers(ts), Cuts: cuts, NextID: 1})
	if err != nil {
		t.Fatal(err)
	}
	router, err := New(Config{ShardRouter: rt})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	// Two well-separated clumps, one per shard.
	var specs []string
	for i := 0; i < 6; i++ {
		specs = append(specs,
			fmt.Sprintf(`{"uniform":{"lo":%d,"hi":%d}}`, i*3, i*3+2),
			fmt.Sprintf(`{"uniform":{"lo":%d,"hi":%d}}`, 1000+i*3, 1000+i*3+2))
	}
	rec := doJSON(t, router, http.MethodPost, "/v1/objects",
		`{"objects":[`+strings.Join(specs, ",")+`]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("router write: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if n0, n1 := stores[0].View().Dataset.Len(), stores[1].View().Dataset.Len(); n0 != 6 || n1 != 6 {
		t.Fatalf("placement: shard populations %d/%d, want 6/6", n0, n1)
	}

	nearURL, farURL := "/v1/pnn?q=7", "/v1/pnn?q=1007"
	near := get(t, router, nearURL)
	if near.Code != http.StatusOK {
		t.Fatalf("near query: status %d: %s", near.Code, near.Body.Bytes())
	}

	// Direct member writes are refused: placement belongs to the router.
	memberRec := doJSON(t, srvs[0], http.MethodPost, "/v1/objects",
		`{"objects":[{"uniform":{"lo":1,"hi":2}}]}`)
	if memberRec.Code != http.StatusForbidden {
		t.Fatalf("member direct write: status %d, want 403", memberRec.Code)
	}
	memberRec = doJSON(t, srvs[0], http.MethodPost, "/v1/dataset", "u 1 0 1\n")
	if memberRec.Code != http.StatusForbidden {
		t.Fatalf("member dataset reload: status %d, want 403", memberRec.Code)
	}
	// The wire endpoints are live and versioned.
	memberRec = get(t, srvs[0], "/internal/shard/info")
	if memberRec.Code != http.StatusOK || memberRec.Header().Get(shard.VersionHeader) == "" {
		t.Fatalf("member info: status %d header %q", memberRec.Code, memberRec.Header().Get(shard.VersionHeader))
	}

	// Kill the far member.
	ts[1].Close()

	rec = get(t, router, nearURL)
	if rec.Code != http.StatusOK {
		t.Fatalf("near query with dead far shard: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if got, want := stripVersion(t, rec.Body.Bytes()), stripVersion(t, near.Body.Bytes()); got != want {
		t.Fatalf("near answer changed under partial availability:\n got %s\nwant %s", got, want)
	}
	rec = get(t, router, farURL)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("far query with dead shard: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 for a dead shard lacks Retry-After")
	}
	rec = doJSON(t, router, http.MethodPost, "/v1/objects",
		`{"objects":[{"uniform":{"lo":1000,"hi":1001}}]}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("write to dead shard: status %d, want 503", rec.Code)
	}
	// Unavailability is visible in the router's health output.
	rec = get(t, router, "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"unavailable_total"`) {
		t.Fatalf("router healthz: status %d body %s", rec.Code, rec.Body.Bytes())
	}
	// (Full kill -9 / restart / reconvergence runs in the CI shard smoke,
	// where the member really does come back on the same address.)
}

// memberServers starts n member-mode servers over fresh stores, each behind
// an httptest server; both are closed when the test ends.
func memberServers(t *testing.T, n int) ([]*Server, []*httptest.Server, []*store.Store) {
	t.Helper()
	srvs := make([]*Server, n)
	ts := make([]*httptest.Server, n)
	stores := make([]*store.Store, n)
	for i := range srvs {
		st, err := store.Open(t.TempDir(), store.Options{NoSync: true, ExplicitIDs: true})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Store: st, ShardMember: true})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i], ts[i], stores[i] = srv, httptest.NewServer(srv.Handler()), st
		t.Cleanup(func() {
			ts[i].Close()
			srv.Close()
		})
	}
	return srvs, ts, stores
}

// httpMembers wraps member servers as one router's members.
func httpMembers(ts []*httptest.Server) []shard.Member {
	ms := make([]shard.Member, len(ts))
	for i, h := range ts {
		ms[i] = shard.NewHTTPMember(h.URL, nil)
	}
	return ms
}

// TestShardMemberClaim runs two routers over the same member servers. The
// one booted last claims the members; the first then fails loudly — its
// queries answer 503 and its writes fail unavailable — instead of skipping
// members on extents the other router's writes went around. A member that
// holds no claim yet (a restart) adopts the first one it sees.
func TestShardMemberClaim(t *testing.T) {
	cuts := []float64{500}
	_, ts, _ := memberServers(t, 2)
	rtA, err := shard.NewRouter(shard.RouterConfig{Members: httpMembers(ts), Cuts: cuts, NextID: 1})
	if err != nil {
		t.Fatal(err)
	}
	frontA, err := New(Config{ShardRouter: rtA})
	if err != nil {
		t.Fatal(err)
	}
	defer frontA.Close()
	ctx := context.Background()
	if _, err := rtA.Apply(ctx, []store.Op{
		store.InsertObject(pdf.MustUniform(10, 20)),
		store.InsertObject(pdf.MustUniform(1000, 1010)),
	}); err != nil {
		t.Fatal(err)
	}
	if rec := get(t, frontA, "/v1/pnn?q=1005"); rec.Code != http.StatusOK {
		t.Fatalf("first router before the second boots: status %d: %s", rec.Code, rec.Body.Bytes())
	}

	rtB, err := shard.NewRouter(shard.RouterConfig{Members: httpMembers(ts), Cuts: cuts, NextID: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A write the first router's cache never sees: far outside shard 0's
	// objects, next to shard 1's.
	res, err := rtB.Apply(ctx, []store.Op{store.InsertObject(pdf.MustUniform(-990, 1003))})
	if err != nil {
		t.Fatal(err)
	}
	g, err := rtB.Gather(ctx, 1005, 1)
	if err != nil {
		t.Fatalf("second router: %v", err)
	}
	if !slices.Contains(g.View.IDs, res.IDs[0]) {
		t.Fatalf("second router gathered %v, missing its own write %d", g.View.IDs, res.IDs[0])
	}
	if _, err := rtA.Gather(ctx, 1005, 1); !errors.Is(err, shard.ErrUnavailable) || !errors.Is(err, shard.ErrSuperseded) {
		t.Fatalf("superseded router's gather: %v, want ErrUnavailable and ErrSuperseded", err)
	}
	// (A repeat of the query above would be a cache hit: the first router's
	// cache keys on the member versions it has seen, and it saw none since.)
	rec := get(t, frontA, "/v1/pnn?q=1004")
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("superseded router's query: status %d (Retry-After %q), want 503",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	if _, err := rtA.Apply(ctx, []store.Op{store.InsertObject(pdf.MustUniform(5, 6))}); !errors.Is(err, shard.ErrUnavailable) {
		t.Fatalf("superseded router's write: %v, want ErrUnavailable", err)
	}

	// A member with no claim pinned adopts the first one, then refuses others
	// until an info request pins a new one.
	fresh, _, _ := memberServers(t, 1)
	claimed := func(path, claim string) int {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set(shard.ClaimHeader, claim)
		rec := httptest.NewRecorder()
		fresh[0].Handler().ServeHTTP(rec, req)
		return rec.Code
	}
	for _, step := range []struct {
		path, claim string
		want        int
	}{
		{"/internal/shard/bound?q=1", "x", http.StatusOK},
		{"/internal/shard/gather?q=1&bound=5", "y", http.StatusConflict},
		{"/internal/shard/info", "y", http.StatusOK},
		{"/internal/shard/bound?q=1", "x", http.StatusConflict},
		{"/internal/shard/gather?q=1&bound=5", "y", http.StatusOK},
	} {
		if got := claimed(step.path, step.claim); got != step.want {
			t.Fatalf("%s with claim %q: status %d, want %d", step.path, step.claim, got, step.want)
		}
	}
}

// TestShardWireBytes pins the member wire's JSON replies byte for byte. A
// router and its members may come from different builds, so the field
// names, their order and the zero values of an empty member are the
// protocol, not an encoding detail.
func TestShardWireBytes(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// ID 2 is deleted in the same batch, so the live IDs have a gap.
	if _, err := st.Apply([]store.Op{
		store.InsertObject(pdf.MustUniform(10.5, 20.25)),
		store.InsertObject(pdf.MustUniform(1, 2)),
		store.InsertObject(pdf.MustUniform(30, 45)),
		store.Delete(2),
	}); err != nil {
		t.Fatal(err)
	}
	populated, err := New(Config{Store: st, ShardMember: true})
	if err != nil {
		t.Fatal(err)
	}
	defer populated.Close()
	empty, _, _ := memberServers(t, 1)
	for _, tc := range []struct {
		srv        *Server
		path, want string
	}{
		{populated, "/internal/shard/info",
			`{"ids_1d":[1,3],"next_id":4,"version":1,"extent":{"minx":10.5,"miny":0,"maxx":45,"maxy":0},"has_extent":true}` + "\n"},
		{populated, "/internal/shard/bound?q=12&k=2",
			`{"extent":{"minx":10.5,"miny":0,"maxx":45,"maxy":0},"has_extent":true,"fars":[8.25,33],"version":1}` + "\n"},
		{empty[0], "/internal/shard/info",
			`{"ids_1d":null,"next_id":1,"version":0,"extent":{"minx":0,"miny":0,"maxx":0,"maxy":0},"has_extent":false}` + "\n"},
		{empty[0], "/internal/shard/bound?q=12&k=2",
			`{"extent":{"minx":0,"miny":0,"maxx":0,"maxy":0},"has_extent":false,"fars":null,"version":0}` + "\n"},
	} {
		rec := get(t, tc.srv, tc.path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.path, rec.Code, rec.Body.Bytes())
		}
		if got := rec.Body.String(); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.path, got, tc.want)
		}
	}
}
