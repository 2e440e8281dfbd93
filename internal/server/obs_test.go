package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pdf"
	"repro/internal/shard"
	"repro/internal/store"
)

// ---- a small Prometheus text-exposition parser ---------------------------
//
// The repo has no Prometheus client library, so these tests parse the scrape
// for real instead of substring-matching: every family must be declared
// exactly once (a non-empty HELP, then TYPE), every sample must belong to a
// declared family, every value must be a float, and histogram series must be
// internally consistent (cumulative buckets, +Inf == _count).

type promFamily struct {
	typ     string
	samples map[string]float64 // full series (name + label set) -> value
}

// parseProm parses a text-format scrape, failing the test on any malformed
// line, family declared twice or without HELP-then-TYPE, sample without a
// declaration, or duplicate series.
func parseProm(t *testing.T, body string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	helped := map[string]bool{}
	family := func(sample string) string {
		name := sample
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if f, ok := fams[base]; ok && f.typ == "histogram" {
				return base
			}
		}
		return name
	}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			name := parts[2]
			if parts[1] == "HELP" {
				if helped[name] || strings.TrimSpace(parts[3]) == "" {
					t.Fatalf("line %d: HELP %s is empty or repeated", ln+1, name)
				}
				helped[name] = true
			} else {
				if _, dup := fams[name]; dup || !helped[name] {
					t.Fatalf("line %d: TYPE %s is repeated or precedes its HELP", ln+1, name)
				}
				fams[name] = &promFamily{typ: parts[3], samples: map[string]float64{}}
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		series, raw := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("line %d: value %q: %v", ln+1, raw, err)
		}
		if i := strings.IndexByte(series, '{'); i >= 0 && !strings.HasSuffix(series, "}") {
			t.Fatalf("line %d: unterminated label set %q", ln+1, series)
		}
		fam, ok := fams[family(series)]
		if !ok {
			t.Fatalf("line %d: sample %q has no TYPE declaration", ln+1, series)
		}
		if _, dup := fam.samples[series]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, series)
		}
		fam.samples[series] = val
	}
	return fams
}

// checkHistogram asserts one labeled histogram child is internally
// consistent and returns its _count.
func checkHistogram(t *testing.T, fams map[string]*promFamily, name, labels string) float64 {
	t.Helper()
	fam, ok := fams[name]
	if !ok {
		t.Fatalf("family %s missing", name)
	}
	if fam.typ != "histogram" {
		t.Fatalf("family %s is a %s, want histogram", name, fam.typ)
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	prev, sawInf := -1.0, false
	for series, val := range fam.samples {
		if !strings.HasPrefix(series, name+"_bucket{"+labels+sep+"le=") {
			continue
		}
		if val < prev && strings.Contains(series, `le="+Inf"`) {
			t.Fatalf("%s: +Inf bucket below a finite one", series)
		}
		if strings.Contains(series, `le="+Inf"`) {
			sawInf = true
			wantCount := name + "_count"
			if labels != "" {
				wantCount += "{" + labels + "}"
			}
			if cnt, ok := fam.samples[wantCount]; !ok || cnt != val {
				t.Fatalf("%s: +Inf=%g but %s=%g (ok=%v)", series, val, wantCount, cnt, ok)
			}
		}
	}
	if !sawInf {
		t.Fatalf("%s{%s}: no +Inf bucket rendered", name, labels)
	}
	countSeries := name + "_count"
	if labels != "" {
		countSeries += "{" + labels + "}"
	}
	return fam.samples[countSeries]
}

// ---- single server -------------------------------------------------------

// TestMetricsParseSingleServer runs a query burst and then parses the whole
// scrape: every family well-formed, the per-phase histograms present and
// non-empty, build info and uptime exposed.
func TestMetricsParseSingleServer(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()
	for i := 0; i < 5; i++ {
		q := 100 + 50*float64(i)
		if rec := get(t, s, fmt.Sprintf("/v1/cpnn?q=%g&p=0.3&delta=0.01", q)); rec.Code != 200 {
			t.Fatalf("cpnn: %d", rec.Code)
		}
	}
	if rec := get(t, s, "/v1/pnn?q=500"); rec.Code != 200 {
		t.Fatalf("pnn: %d", rec.Code)
	}
	if rec := get(t, s, "/v1/knn?q=300&k=2&p=0.3"); rec.Code != 200 {
		t.Fatalf("knn: %d", rec.Code)
	}

	rec := get(t, s, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("metrics: %d", rec.Code)
	}
	fams := parseProm(t, rec.Body.String())

	for _, phase := range []string{"filter", "derive", "verify"} {
		labels := fmt.Sprintf("phase=%q,endpoint=%q", phase, "cpnn")
		if n := checkHistogram(t, fams, "cpnn_query_phase_seconds", labels); n != 5 {
			t.Errorf("phase=%s count = %g, want 5", phase, n)
		}
	}
	if n := checkHistogram(t, fams, "cpnn_query_phase_seconds", `phase="filter",endpoint="pnn"`); n != 1 {
		t.Errorf("pnn phase count = %g, want 1", n)
	}
	if _, ok := fams["cpnn_build_info"]; !ok {
		t.Error("cpnn_build_info missing")
	}
	if up, ok := fams["cpnn_server_uptime_seconds"]; !ok || len(up.samples) != 1 {
		t.Error("cpnn_server_uptime_seconds missing")
	}
	if _, ok := fams["cpnn_server_sse_closed_total"]; !ok {
		t.Error("cpnn_server_sse_closed_total missing")
	}
}

// TestPhaseHistogramSkipsCacheHits: a cache hit spends no engine time, so it
// must not add phase observations.
func TestPhaseHistogramSkipsCacheHits(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()
	for i := 0; i < 3; i++ {
		if rec := get(t, s, "/v1/cpnn?q=500&p=0.3&delta=0.01"); rec.Code != 200 {
			t.Fatalf("cpnn: %d", rec.Code)
		}
	}
	fams := parseProm(t, get(t, s, "/metrics").Body.String())
	if n := checkHistogram(t, fams, "cpnn_query_phase_seconds", `phase="filter",endpoint="cpnn"`); n != 1 {
		t.Fatalf("3 requests (2 cache hits) observed %g phase samples, want 1", n)
	}
}

// TestKNNPhaseHistogram: a /v1/knn miss reports where its time went. The
// stateless CKNN once timed its filter alone, so the knn endpoint's derive
// and verify histograms counted the query but summed to zero seconds.
func TestKNNPhaseHistogram(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()
	if rec := get(t, s, "/v1/knn?q=300&k=2&p=0.3"); rec.Code != 200 {
		t.Fatalf("knn: %d %s", rec.Code, rec.Body)
	}
	fams := parseProm(t, get(t, s, "/metrics").Body.String())
	for _, phase := range []string{"derive", "verify"} {
		labels := fmt.Sprintf("phase=%q,endpoint=%q", phase, "knn")
		if n := checkHistogram(t, fams, "cpnn_query_phase_seconds", labels); n != 1 {
			t.Errorf("phase=%s count = %g, want 1", phase, n)
		}
		if sum := fams["cpnn_query_phase_seconds"].samples["cpnn_query_phase_seconds_sum{"+labels+"}"]; !(sum > 0) {
			t.Errorf("phase=%s observed %g seconds for a cache miss, want > 0", phase, sum)
		}
	}
}

// ---- sharded server: metrics + end-to-end trace --------------------------

// shardedObsServer builds a 3-shard in-process cluster server with the full
// observability wiring a cpnn-serve -shards boot would have.
func shardedObsServer(t *testing.T) (*Server, *obs.Tracer) {
	t.Helper()
	srcDir, dstDir := t.TempDir(), t.TempDir()
	st, err := store.Open(srcDir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var ops []store.Op
	for i := 0; i < 30; i++ {
		lo := float64(i * 25)
		ops = append(ops, store.InsertObject(pdf.MustUniform(lo, lo+10)))
	}
	if _, err := st.Apply(ops); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.SplitStore(srcDir, dstDir, 3, store.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	cluster, err := shard.OpenCluster(dstDir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })

	tracer := obs.NewTracer(0)
	reg := obs.NewRegistry()
	member := obs.NewHistogramVec("cpnn_server_shard_member_seconds",
		"Per-member hop latency.", []string{"op", "shard"}, nil)
	fanout := obs.NewHistogram("cpnn_server_shard_fanout_members",
		"Gather fan-out.", obs.FanoutBuckets)
	reg.Register(member)
	reg.Register(fanout)
	rt, err := cluster.RouterObs(shard.Obs{
		Tracer: tracer, MemberSeconds: member, Fanout: fanout,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		ShardRouter: rt, ShardCluster: cluster,
		Tracer: tracer, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, tracer
}

// TestShardedTracePropagation is the acceptance check: one traced query
// through the sharded stack yields a single trace holding the router
// ingress span plus a bound span per contacted member and gather spans, all
// sharing the trace ID the response header reported, with phase durations
// recorded.
func TestShardedTracePropagation(t *testing.T) {
	s, tracer := shardedObsServer(t)

	rec := get(t, s, "/v1/cpnn?q=300&p=0.3&delta=0.01")
	if rec.Code != 200 {
		t.Fatalf("cpnn: %d: %s", rec.Code, rec.Body)
	}
	hdr := rec.Header().Get(obs.TraceHeader)
	sc, ok := obs.ParseHeader(hdr)
	if !ok {
		t.Fatalf("response %s header %q unparsable", obs.TraceHeader, hdr)
	}

	var trace *obs.TraceJSON
	for _, tr := range tracer.Traces(0, 0) {
		if tr.TraceID == sc.TraceHex() {
			trace = &tr
			break
		}
	}
	if trace == nil {
		t.Fatalf("trace %s not in the tracer ring", sc.TraceHex())
	}
	var ingress, bound, gather int
	for _, sp := range trace.Spans {
		switch {
		case sp.Component == "server" && strings.HasPrefix(sp.Name, "GET /v1/cpnn"):
			ingress++
			if sp.Attrs["phase_filter_ms"] == "" || sp.Attrs["phase_verify_ms"] == "" {
				t.Errorf("ingress span lacks phase attrs: %v", sp.Attrs)
			}
			if sp.Attrs["status"] != "200" {
				t.Errorf("ingress status attr = %q", sp.Attrs["status"])
			}
		case sp.Component == "shard" && sp.Name == "member.bound":
			bound++
			if sp.Attrs["shard"] == "" {
				t.Errorf("bound span lacks shard attr")
			}
		case sp.Component == "shard" && sp.Name == "member.gather":
			gather++
		}
	}
	if ingress != 1 {
		t.Errorf("ingress spans = %d, want 1", ingress)
	}
	// The router bounds the member nearest q and skips the two whose extents
	// miss the ball: one bound span per member it contacted.
	g, err := s.cfg.ShardRouter.Gather(context.Background(), 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bound != g.Contacted || g.Contacted >= 3 {
		t.Errorf("member.bound spans = %d, want Contacted = %d (< 3 shards)", bound, g.Contacted)
	}
	if gather < 1 {
		t.Errorf("member.gather spans = %d, want >= 1", gather)
	}

	// /debug/traces serves the same trace over HTTP.
	drec := get(t, s, "/debug/traces?n=10")
	if drec.Code != 200 {
		t.Fatalf("/debug/traces: %d", drec.Code)
	}
	if !strings.Contains(drec.Body.String(), sc.TraceHex()) {
		t.Fatal("/debug/traces does not list the query's trace")
	}
}

// TestMetricsParseShardedServer parses the router-mode scrape: the shard
// families, the phase histograms, and the registered router histograms all
// well-formed in one exposition.
func TestMetricsParseShardedServer(t *testing.T) {
	s, _ := shardedObsServer(t)
	for _, u := range []string{
		"/v1/cpnn?q=137.5&p=0.3&delta=0.01",
		"/v1/cpnn?q=512&p=0.5&delta=0.05",
		"/v1/pnn?q=300",
	} {
		if rec := get(t, s, u); rec.Code != 200 {
			t.Fatalf("%s: %d", u, rec.Code)
		}
	}
	rec := get(t, s, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("metrics: %d", rec.Code)
	}
	fams := parseProm(t, rec.Body.String())
	if n := checkHistogram(t, fams, "cpnn_query_phase_seconds", `phase="filter",endpoint="cpnn"`); n != 2 {
		t.Errorf("sharded cpnn phase count = %g, want 2", n)
	}
	if n := checkHistogram(t, fams, "cpnn_server_shard_member_seconds", `op="bound",shard="0"`); n < 1 {
		t.Errorf("member bound histogram empty")
	}
	if n := checkHistogram(t, fams, "cpnn_server_shard_fanout_members", ""); n != 3 {
		t.Errorf("fanout observations = %g, want 3", n)
	}
	if _, ok := fams["cpnn_server_shard_count"]; !ok {
		t.Error("cpnn_server_shard_count missing")
	}
}

// TestMetricsParseRouterMonitors: a K=2 router server with in-process
// members counts a push under the shard_ prefix and observes the one
// push-latency histogram after a commit moved a standing answer. (The family
// list itself is TestMetricsFamilies' job.)
func TestMetricsParseRouterMonitors(t *testing.T) {
	cluster, err := shard.CreateClusterCuts(t.TempDir(), []float64{100}, nil, store.Options{NoSync: true})
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
	seed := `{"objects":[{"uniform":{"lo":40,"hi":50}},{"uniform":{"lo":140,"hi":150}}]}`
	if rec := doJSON(t, s, http.MethodPost, "/v1/objects", seed); rec.Code != 200 {
		t.Fatalf("seed: %d: %s", rec.Code, rec.Body.Bytes())
	}
	if rec := doJSON(t, s, http.MethodPost, "/v1/monitors", `{"kind":"cpnn","q":60,"p":0.3,"delta":0.01}`); rec.Code != 200 {
		t.Fatalf("register: %d: %s", rec.Code, rec.Body.Bytes())
	}
	if rec := doJSON(t, s, http.MethodPost, "/v1/objects", `{"objects":[{"uniform":{"lo":59,"hi":61}}]}`); rec.Code != 200 {
		t.Fatalf("trigger: %d: %s", rec.Code, rec.Body.Bytes())
	}
	if err := s.monitors.Sync(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	fams := parseProm(t, get(t, s, "/metrics").Body.String())
	if n := checkHistogram(t, fams, "cpnn_server_monitor_push_latency_seconds", ""); n < 1 {
		t.Errorf("push-latency observations = %g after a push, want >= 1", n)
	}
	const pushes = "cpnn_server_shard_monitor_pushes_total"
	if f := fams[pushes]; f == nil || f.samples[pushes] < 1 {
		t.Errorf("%s missing or < 1 after a push", pushes)
	}
}

// TestMetricsParseReplicaServer parses a follower's scrape end to end,
// including the replication families.
func TestMetricsParseReplicaServer(t *testing.T) {
	primary, rep := replicaPair(t, 4)
	if rec := get(t, primary, "/v1/cpnn?q=15&p=0.3&delta=0.01"); rec.Code != 200 {
		t.Fatalf("primary cpnn: %d", rec.Code)
	}
	for _, s := range []*Server{primary, rep} {
		rec := get(t, s, "/metrics")
		if rec.Code != 200 {
			t.Fatalf("metrics: %d", rec.Code)
		}
		parseProm(t, rec.Body.String())
	}
	fams := parseProm(t, get(t, rep, "/metrics").Body.String())
	if _, ok := fams["cpnn_server_replica_caught_up"]; !ok {
		t.Error("follower scrape lacks cpnn_server_replica_caught_up")
	}
}

// ---- the exported family set, against README -----------------------------

// readmeFamilies parses README's metrics reference table into, per serving
// shape (the parityBackends names), family name -> type.
func readmeFamilies(t *testing.T) map[string]map[string]string {
	t.Helper()
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[string]map[string]string{"dataset": {}, "store": {}, "replica": {}, "router": {}}
	_, table, found := strings.Cut(string(data), "| Family | Type | Shapes | Meaning |\n")
	if !found {
		t.Fatal("README has no metrics reference table")
	}
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 4 || strings.TrimSpace(cells[3]) == "" {
			t.Fatalf("README metrics row %q: want name, type, shapes and a meaning", line)
		}
		name, typ := strings.Trim(strings.TrimSpace(cells[0]), "`"), strings.TrimSpace(cells[1])
		if strings.HasPrefix(name, "-") {
			continue // the header separator
		}
		for _, shape := range strings.Split(cells[2], ",") {
			fams, ok := shapes[strings.TrimSpace(shape)]
			if _, dup := fams[name]; !ok || dup {
				t.Fatalf("README metrics row %s: shape %q is unknown or listed twice", name, shape)
			}
			fams[name] = typ
		}
	}
	return shapes
}

// driveFamilyTraffic makes every conditional family defined: a standing
// query, then a commit near it (monitor_pruned_fraction, push latency), a
// query (shard_fanout_fraction, shard_skew) and a checkpoint
// (store_checkpoint_age_seconds).
func driveFamilyTraffic(t *testing.T, backends []parityBackend) {
	t.Helper()
	for _, b := range backends {
		if b.gateStatus(needMonitors) != 0 {
			continue
		}
		if rec := doJSON(t, b.srv, http.MethodPost, "/v1/monitors", `{"kind":"cpnn","q":137.5,"p":0.3,"delta":0.01}`); rec.Code != http.StatusOK {
			t.Fatalf("%s: register: %d: %s", b.name, rec.Code, rec.Body)
		}
	}
	for _, b := range backends {
		if b.gateStatus(needObjects) != 0 {
			continue
		}
		if rec := doJSON(t, b.srv, http.MethodPost, "/v1/objects", `{"objects":[{"uniform":{"lo":136,"hi":139}}]}`); rec.Code != http.StatusOK {
			t.Fatalf("%s: commit: %d: %s", b.name, rec.Code, rec.Body)
		}
	}
	waitReplicaVersion(t, backends[2].srv, backends[1].srv.Snapshot().Version)
	for _, b := range backends {
		if rec := get(t, b.srv, "/v1/cpnn?q=137.5&p=0.3&delta=0.01"); rec.Code != http.StatusOK {
			t.Fatalf("%s: cpnn: %d: %s", b.name, rec.Code, rec.Body)
		}
		if b.srv.monitors != nil {
			if err := b.srv.monitors.Sync(10 * time.Second); err != nil {
				t.Fatalf("%s: sync: %v", b.name, err)
			}
		}
		if st := b.srv.cfg.Store; st != nil {
			if err := st.Checkpoint(); err != nil {
				t.Fatalf("%s: checkpoint: %v", b.name, err)
			}
		}
	}
}

// TestMetricsFamilies is the telemetry self-check: on every serving shape the
// exported (family, type) set equals README's metrics reference table, in
// both directions — a collector cannot add a family the docs lack, and the
// docs cannot keep a family nothing exports. parseProm holds each family to
// one non-empty HELP followed by one TYPE.
func TestMetricsFamilies(t *testing.T) {
	backends := parityBackends(t)
	driveFamilyTraffic(t, backends)
	documented := readmeFamilies(t)
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			exported := parseProm(t, get(t, b.srv, "/metrics").Body.String())
			want := documented[b.name]
			for name, f := range exported {
				if typ, ok := want[name]; !ok {
					t.Errorf("exports %s (%s), which README's metrics table does not list for this shape", name, f.typ)
				} else if typ != f.typ {
					t.Errorf("%s is a %s; README's metrics table says %s", name, f.typ, typ)
				}
			}
			for name := range want {
				if exported[name] == nil {
					t.Errorf("README's metrics table lists %s for this shape, but the scrape lacks it", name)
				}
			}
		})
	}
}

// ---- slow-query log ------------------------------------------------------

func TestSlowQueryLog(t *testing.T) {
	s := testServer(t, Config{SlowQueryThreshold: time.Nanosecond})
	defer s.Close()
	if rec := get(t, s, "/v1/cpnn?q=500&p=0.3&delta=0.01"); rec.Code != 200 {
		t.Fatalf("cpnn: %d", rec.Code)
	}
	rec := get(t, s, "/debug/slowlog")
	if rec.Code != 200 {
		t.Fatalf("slowlog: %d", rec.Code)
	}
	var out struct {
		ThresholdMs float64         `json:"threshold_ms"`
		Entries     []obs.SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body)
	}
	var entry *obs.SlowEntry
	for i := range out.Entries {
		if out.Entries[i].Endpoint == "/v1/cpnn" {
			entry = &out.Entries[i]
		}
	}
	if entry == nil {
		t.Fatalf("no /v1/cpnn entry in %+v", out.Entries)
	}
	if entry.TraceID == "" || entry.Status != 200 || entry.Query == "" {
		t.Fatalf("entry = %+v", entry)
	}
	if entry.Attrs["phase_filter_ms"] == "" || entry.Attrs["cache"] != "miss" {
		t.Fatalf("entry attrs = %v", entry.Attrs)
	}
}

func TestSlowQueryLogDisabledByDefault(t *testing.T) {
	s := testServer(t, Config{})
	defer s.Close()
	if rec := get(t, s, "/v1/cpnn?q=500&p=0.3&delta=0.01"); rec.Code != 200 {
		t.Fatalf("cpnn: %d", rec.Code)
	}
	var out struct {
		Entries []obs.SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal(get(t, s, "/debug/slowlog").Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != 0 {
		t.Fatalf("disabled slowlog holds %d entries", len(out.Entries))
	}
}

// ---- SSE close accounting ------------------------------------------------

// TestSSECloseReasonClientGone: dropping the client connection ends the
// stream and bumps the client_gone close counter.
func TestSSECloseReasonClientGone(t *testing.T) {
	s := storeBackedServer(t, t.TempDir(), 2)
	defer s.Close()
	doJSON(t, s, http.MethodPost, "/v1/monitors", `{"kind":"cpnn","q":7,"p":0.3,"delta":0.01}`)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/subscribe")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: %d", resp.StatusCode)
	}
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("first read: %v", err)
	}
	resp.Body.Close() // client goes away

	deadline := time.Now().Add(10 * time.Second)
	for s.m.sseClosed[sseClientGone].Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client_gone close never counted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	fams := parseProm(t, get(t, s, "/metrics").Body.String())
	series := `cpnn_server_sse_closed_total{reason="client_gone"}`
	if got := fams["cpnn_server_sse_closed_total"].samples[series]; got != 1 {
		t.Fatalf("%s = %g, want 1", series, got)
	}
}

// TestSSECloseReasonDrain: Drain ends open streams with reason "drain".
func TestSSECloseReasonDrain(t *testing.T) {
	s := storeBackedServer(t, t.TempDir(), 2)
	defer s.Close()
	doJSON(t, s, http.MethodPost, "/v1/monitors", `{"kind":"cpnn","q":7,"p":0.3,"delta":0.01}`)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/subscribe")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("first read: %v", err)
	}
	s.Drain()
	deadline := time.Now().Add(10 * time.Second)
	for s.m.sseClosed[sseDrain].Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("drain close never counted")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ---- healthz build/uptime ------------------------------------------------

// TestHealthzBuildAndUptime: the one /healthz handler reports the common
// fields on every shape — a plain server and a shard router alike.
func TestHealthzBuildAndUptime(t *testing.T) {
	plain := testServer(t, Config{})
	defer plain.Close()
	router, _ := shardedObsServer(t)
	for name, s := range map[string]*Server{"plain": plain, "router": router} {
		var hz struct {
			Build  string   `json:"build"`
			Uptime *float64 `json:"uptime_seconds"`
		}
		if err := json.Unmarshal(get(t, s, "/healthz").Body.Bytes(), &hz); err != nil {
			t.Fatal(err)
		}
		if hz.Build != obs.Version {
			t.Fatalf("%s: build = %q, want %q", name, hz.Build, obs.Version)
		}
		if hz.Uptime == nil || *hz.Uptime < 0 {
			t.Fatalf("%s: uptime_seconds = %v", name, hz.Uptime)
		}
	}
}
