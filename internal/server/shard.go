package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/uncertain"
)

// Sharded serving. With Config.ShardRouter the handlers read and write
// through routerBackend: each query runs the router's scatter-gather (bound
// the member nearest the query, and any other whose cached extent reaches its
// bound; gather candidates from the members whose extent intersects the
// candidate ball) and the merged mini-view is rendered by the same payload
// builders as a local snapshot, so sharding changes the version field of a
// response and nothing else. With Config.ShardMember the server additionally
// speaks the member wire protocol under /internal/shard/* so a router in
// another process can scatter to it, answering one router's claim at a time.

// shardError maps shard failures onto HTTP statuses: a dead member is a 503
// (transient — writeError adds Retry-After), everything else maps like a
// store failure.
func shardError(err error) error {
	if errors.Is(err, shard.ErrUnavailable) {
		return &httpError{status: http.StatusServiceUnavailable, msg: err.Error()}
	}
	return storeError(err)
}

// routerBackend serves a shard cluster through its router. There is no
// local snapshot: every cache miss resolves against a fresh gathered cut.
type routerBackend struct {
	s  *Server
	rt *shard.Router
}

func newRouterBackend(s *Server) (*routerBackend, error) {
	b := &routerBackend{s: s, rt: s.cfg.ShardRouter}
	s.reg.Register(obs.CollectorFunc(b.collect))
	// Continuous queries need the member change feeds, which exist
	// in-process only with a ShardCluster; under multi-process routing they
	// live in the member processes, so this router cannot host them.
	if s.cfg.ShardCluster == nil {
		s.monitorsHint = "continuous queries require in-process member stores (run cpnn-serve with -shards)"
		return b, nil
	}
	src, err := shard.NewMonitorSource(b.rt, s.cfg.ShardCluster.Stores)
	if err != nil {
		return nil, err
	}
	return b, s.startMonitors(monitor.Config{Source: src}, "cpnn_server_shard_")
}

// routerView pins the member version vector (not its sum — two distinct
// cuts may share a sum) observed at admission; any committed write bumps a
// member version and so invalidates every key built from it.
type routerView struct {
	rt *shard.Router
	vk string
}

func (v *routerView) key() string     { return v.vk }
func (v *routerView) version() uint64 { return v.rt.VersionSum() }

// snapshot wraps a gathered candidate cut as a serving snapshot: the engine
// runs over the merged mini-dataset through the scan index the router
// attached to it (no R-tree is built per query), the version is the cut's
// member-version sum, and IDs translate the mini-dataset's dense IDs back to
// cluster-wide stable IDs.
func (v *routerView) snapshot(ctx context.Context, qq float64, k int) (*Snapshot, error) {
	g, err := v.rt.Gather(ctx, qq, k)
	if err != nil {
		return nil, shardError(err)
	}
	if ri := obs.ReqInfoFrom(ctx); ri != nil {
		ri.Set("fanout", strconv.Itoa(g.Fanout)) // shards the gather phase read
	}
	eng, err := core.NewEngineWithIndex(g.View.Dataset, g.View.Index)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		Engine:  eng,
		Version: g.Version,
		Source:  "shards",
		IDs:     g.View.IDs,
	}, nil
}

func (b *routerBackend) admit() (view, error) {
	return &routerView{rt: b.rt, vk: b.rt.VersionsKey()}, nil
}

func (b *routerBackend) admitWrite(*http.Request, bool) error { return nil }

func (b *routerBackend) apply(ctx context.Context, ops []store.Op) (store.ApplyResult, int, error) {
	res, err := b.rt.Apply(ctx, ops)
	if err != nil {
		return res, 0, shardError(err)
	}
	return res, b.rt.Objects(), nil
}

func (b *routerBackend) reload(ctx context.Context, ds *uncertain.Dataset, _ string) (datasetResponse, error) {
	res, err := b.rt.Reload(ctx, ds)
	if err != nil {
		return datasetResponse{}, shardError(err)
	}
	b.s.m.reloads.Add(1)
	return datasetResponse{Version: res.Version, Objects: b.rt.Objects(), Source: "shards"}, nil
}

func (b *routerBackend) info() datasetResponse {
	return datasetResponse{Version: b.rt.VersionSum(), Objects: b.rt.Objects(), Source: "shards"}
}

func (b *routerBackend) health(body map[string]any) {
	st := b.rt.Stats()
	body["shard"] = map[string]any{
		"shards":            st.Shards,
		"versions":          st.Versions,
		"per_shard_objects": st.PerShard,
		"unavailable_total": st.Unavailable,
	}
}

// close is a no-op: the caller owns the router and the cluster behind it.
func (b *routerBackend) close() error { return nil }

// collect emits the cpnn_server_shard_* families from the router's counters.
func (b *routerBackend) collect(e *obs.Emitter) {
	st := b.rt.Stats()
	const p = "cpnn_server_shard_"
	obs.Gauge(e, p+"count", "Shards in the cluster.", st.Shards)
	for i, n := range st.PerShard {
		obs.Gauge(e, p+"objects", "Live 1-D objects, by shard.", n, "shard", strconv.Itoa(i))
	}
	for i, v := range st.Versions {
		obs.Gauge(e, p+"version", "Member store version, by shard.", v, "shard", strconv.Itoa(i))
	}
	obs.Counter(e, p+"queries_total", "Scatter-gather passes.", st.Queries)
	obs.Counter(e, p+"retries_total", "Gather rounds repeated because a concurrent write moved the bound.", st.Retries)
	obs.Counter(e, p+"unavailable_total", "Queries failed on a dead shard.", st.Unavailable)
	obs.Counter(e, p+"bound_contacts_total", "Per-member bound-phase reads: the member nearest each query, plus any whose cached extent reaches its bound.", st.BoundContacts)
	obs.Counter(e, p+"gather_contacts_total", "Per-member gather-phase reads.", st.GatherContacts)
	if st.Queries > 0 && st.Shards > 0 {
		obs.Gauge(e, p+"fanout_fraction", "Mean fraction of shards the gather phase read per query.",
			float64(st.GatherContacts)/(float64(st.Queries)*float64(st.Shards)))
	}
	obs.Counter(e, p+"merge_seconds_total", "Time spent merging per-shard bounds and candidates.", float64(st.MergeNanos)/1e9)
	if st.Objects > 0 && st.Shards > 0 {
		obs.Gauge(e, p+"skew", "Largest shard population over the balanced mean (1 = perfectly even).",
			float64(slices.Max(st.PerShard))*float64(st.Shards)/float64(st.Objects))
	}
}

// ---- member mode: the wire protocol ------------------------------------

// wireMember is member mode's wire endpoint: the shard's local member and
// the router claim it answers (see shard.ClaimHeader). mu orders a pin after
// every write admitted under the previous claim: info pins and reads under
// it, apply checks and commits under it.
type wireMember struct {
	*shard.Local
	mu     sync.Mutex
	pinned string
}

// admitLocked checks a bound, gather or apply request's claim: an unpinned
// member adopts it, and any claim but the pinned one is a 409.
func (m *wireMember) admitLocked(r *http.Request) error {
	got := r.Header.Get(shard.ClaimHeader)
	if m.pinned == "" {
		m.pinned = got
	}
	if got != m.pinned {
		return &httpError{status: http.StatusConflict, msg: "shard member is claimed by another router"}
	}
	return nil
}

func (m *wireMember) admit(r *http.Request) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.admitLocked(r)
}

func (s *Server) handleShardInfo(w http.ResponseWriter, r *http.Request) {
	s.m.requests[epShard].Add(1)
	s.member.mu.Lock()
	if got := r.Header.Get(shard.ClaimHeader); got != "" {
		s.member.pinned = got
	}
	info, err := s.member.Info()
	s.member.mu.Unlock()
	if err != nil {
		s.writeError(w, storeError(err))
		return
	}
	w.Header().Set(shard.VersionHeader, strconv.FormatUint(info.Version, 10))
	writeJSON(w, http.StatusOK, shard.InfoToWire(info))
}

func (s *Server) handleShardBound(w http.ResponseWriter, r *http.Request) {
	s.m.requests[epShard].Add(1)
	if err := s.member.admit(r); err != nil {
		s.writeError(w, err)
		return
	}
	qs := query(r.URL.RawQuery)
	q, err := queryFloat(qs, "q")
	if err != nil {
		s.writeError(w, err)
		return
	}
	k, err := queryIntDefault(qs, "k", 1)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if k < 1 {
		s.writeError(w, badRequest("parameter \"k\" must be >= 1, got %d", k))
		return
	}
	b, err := s.member.Bound(r.Context(), q, k)
	if err != nil {
		s.writeError(w, storeError(err))
		return
	}
	w.Header().Set(shard.VersionHeader, strconv.FormatUint(b.Version, 10))
	writeJSON(w, http.StatusOK, shard.BoundToWire(b))
}

func (s *Server) handleShardGather(w http.ResponseWriter, r *http.Request) {
	s.m.requests[epShard].Add(1)
	if err := s.member.admit(r); err != nil {
		s.writeError(w, err)
		return
	}
	qs := query(r.URL.RawQuery)
	q, err := queryFloat(qs, "q")
	if err != nil {
		s.writeError(w, err)
		return
	}
	// The pruning bound is +Inf when the router gathers everything, so it
	// deliberately bypasses the finite-number guard; only NaN is nonsense.
	raw := qs.Get("bound")
	bound, perr := strconv.ParseFloat(raw, 64)
	if raw == "" || perr != nil || math.IsNaN(bound) {
		s.writeError(w, badRequest("parameter %q: %q is not a number", "bound", raw))
		return
	}
	items, ver, err := s.member.Gather(r.Context(), q, bound)
	if err != nil {
		s.writeError(w, storeError(err))
		return
	}
	payload, err := shard.EncodeItems(items)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set(shard.VersionHeader, strconv.FormatUint(ver, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(payload)
}

func (s *Server) handleShardApply(w http.ResponseWriter, r *http.Request) {
	s.m.requests[epShard].Add(1)
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, "POST")
		return
	}
	payload, err := readBody(w, r, s.cfg.MaxDatasetBytes)
	if err != nil {
		s.writeError(w, err)
		return
	}
	var res store.ApplyResult
	s.member.mu.Lock()
	err = s.member.admitLocked(r)
	if err == nil {
		res, err = s.member.Apply(r.Context(), payload)
	}
	s.member.mu.Unlock()
	if err != nil {
		s.writeError(w, storeError(err))
		return
	}
	w.Header().Set(shard.VersionHeader, strconv.FormatUint(res.Version, 10))
	writeJSON(w, http.StatusOK, shard.WireApply{Version: res.Version, Seq: res.Seq, IDs: res.IDs})
}
