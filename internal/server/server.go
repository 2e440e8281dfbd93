// Package server turns the C-PNN engine into a long-lived concurrent query
// service — the serving layer the paper's interactive scenarios (LBS, sensor
// monitoring) assume exists around cheap verified queries.
//
// Architecture:
//
//   - One handler per endpoint over a narrow backend interface. The local
//     backend (local.go) serves this server's own snapshot — dataset-only,
//     store, replica and shard member differ only in their gates; the router
//     backend (shard.go) serves a shard cluster by scatter-gather. Cache,
//     singleflight and worker pool sit in front of both.
//   - Copy-on-write dataset snapshots. The engine lives behind an atomic
//     pointer; POST /v1/dataset builds a fresh engine off to the side and
//     swaps the pointer, so reloads never block readers and every request
//     resolves entirely against one snapshot.
//   - A sharded LRU result cache keyed by (snapshot version, endpoint,
//     quantized query point, constraint, strategy). Concurrent identical
//     queries collapse onto one evaluation (singleflight). Because keys embed
//     the snapshot version, a reload invalidates the whole cache atomically:
//     entries for the old snapshot can never match a new request.
//   - A bounded worker pool: at most MaxInFlight evaluations run at once;
//     excess requests queue until a slot frees and are shed with a 503 once
//     they have waited QueueTimeout. An evaluation runs on a scratch
//     (subregion table, candidate buffer, fold arena) borrowed from core's
//     one capped pool, so a cold read allocates none of them.
//
// Responses are deterministic — per-query timings are deliberately excluded
// (they live in /metrics aggregates) so a cached response is byte-identical
// to a fresh evaluation of the same key.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// DefaultCacheEntries is the default result-cache capacity.
const DefaultCacheEntries = 4096

// DefaultCacheShards is the shard count of the result cache.
const DefaultCacheShards = 16

// DefaultMaxDatasetBytes bounds the body of a dataset reload.
const DefaultMaxDatasetBytes = 1 << 28 // 256 MiB: ~53k 300-bar histogram lines

// DefaultQueueTimeout is how long a request waits for a worker slot before
// the server sheds it with a 503.
const DefaultQueueTimeout = 10 * time.Second

// Config configures a Server. Dataset is required unless Store already
// holds objects; every other zero value selects a sensible default.
type Config struct {
	// Dataset is the initial dataset to serve. With a Store attached it
	// seeds an empty store (durably); a non-empty store's own contents win.
	Dataset *uncertain.Dataset
	// Source labels the initial dataset in /v1/dataset and /healthz output.
	Source string

	// Store, when set, makes every mutation durable: POST/DELETE /v1/objects
	// are enabled, POST /v1/dataset commits a truncate+bulk-insert batch
	// through the write-ahead log, and snapshot versions are monotonic
	// across restarts. Response object IDs are the store's stable IDs. The
	// server owns the store: Close checkpoints and closes it.
	Store *store.Store

	// Replica, when set, runs the server as a read replica: Store is filled
	// in from the follower (leave it nil), reads answer 503 + Retry-After
	// until the follower's first catch-up, and writes redirect to the
	// primary (307 when its HTTP address is known, 403 otherwise). Dataset
	// must be nil — the data comes from the primary. The caller owns the
	// follower and must Close it before closing the server.
	Replica *replica.Follower
	// Replication, when set, is the primary-side replication listener whose
	// counters surface in /metrics and /healthz. The caller owns it.
	Replication *replica.Server

	// ShardRouter, when set, runs the server in scatter-gather mode: queries
	// fan out over the router's shard cluster and writes route to the owning
	// member, replacing the local snapshot entirely. Dataset, Store and
	// Replica must be nil. The caller owns the router (and the cluster
	// behind it) and closes them after the server.
	ShardRouter *shard.Router
	// ShardCluster, set alongside ShardRouter when the member stores live in
	// this process (cpnn-serve -shards K), enables continuous queries over
	// the cluster: the monitor joins every member's change feed.
	// Without it (multi-process routing) /v1/monitors answers 501.
	ShardCluster *shard.Cluster
	// ShardMember exposes the member wire protocol under /internal/shard/*
	// so a shard router in another process can scatter to this server.
	// Requires Store. Client-facing writes (/v1/objects, POST /v1/dataset)
	// are refused in member mode — the router owns ID assignment and
	// placement, so writes must flow through it.
	ShardMember bool

	// CacheEntries is the result-cache capacity; 0 means DefaultCacheEntries
	// and a negative value disables result storage (singleflight collapsing
	// of identical in-flight queries stays active).
	CacheEntries int
	// Quantum, when positive, snaps query points to multiples of itself
	// before evaluation, so nearby queries share cache entries. The served
	// result is the exact answer for the snapped point (reported back as
	// "query" in the response), never an interpolation.
	Quantum float64
	// MaxInFlight caps concurrent engine evaluations; 0 means
	// 2×GOMAXPROCS. Requests beyond the cap queue.
	MaxInFlight int
	// MaxDatasetBytes bounds dataset-reload request bodies; 0 means
	// DefaultMaxDatasetBytes.
	MaxDatasetBytes int64
	// QueueTimeout bounds how long a request may wait for a worker slot
	// before being shed with a 503; 0 means DefaultQueueTimeout and a
	// negative value waits indefinitely. The wait is server-side on purpose
	// (not tied to the client's connection): a singleflight leader holds the
	// queue position for every collapsed waiter behind it.
	QueueTimeout time.Duration

	// MonitorWorkers bounds the continuous-query re-evaluation pool; 0 means
	// the monitor's default (GOMAXPROCS). The monitor itself exists whenever
	// a store or a ShardCluster is attached: /v1/monitors registers standing
	// queries and /v1/subscribe streams their answer updates.
	MonitorWorkers int
	// MonitorStateBytes caps the memory the monitor retains for per-query
	// incremental evaluation states; 0 means the monitor's default, negative
	// disables the cap.
	MonitorStateBytes int64

	// Logger receives the server's structured logs; nil discards them.
	Logger *slog.Logger
	// Tracer records request spans and serves GET /debug/traces; nil means a
	// private tracer with the default capacity (tracing is always on — its
	// cost is one bounded ring).
	Tracer *obs.Tracer
	// Metrics holds the caller's extra collectors, rendered on /metrics after
	// the server's own — binaries register router/follower histograms here so
	// one scrape covers the whole process. nil means none.
	Metrics *obs.Registry
	// SlowQueryThreshold enables the slow-query ring served at GET
	// /debug/slowlog: requests at or above it are recorded with their phase
	// breakdown, cache/fan-out labels and trace ID. 0 disables.
	SlowQueryThreshold time.Duration
}

// storeHasData reports whether an attached store holds any durable objects
// — either family. A disks-only store counts: serving it with an empty 1-D
// dataset is correct, whereas treating it as empty would let a seed dataset
// truncate (and destroy) the stored disks.
func storeHasData(st *store.Store) bool {
	if st == nil {
		return false
	}
	v := st.View()
	return v.Dataset.Len() > 0 || len(v.Disks) > 0
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.ShardRouter != nil {
		if cfg.Dataset != nil || cfg.Store != nil || cfg.Replica != nil || cfg.Replication != nil {
			return cfg, errors.New("server: ShardRouter cannot be combined with Dataset, Store or replication (the data lives in the shard cluster)")
		}
		if cfg.ShardMember {
			return cfg, errors.New("server: a server is a shard router or a shard member, not both")
		}
	}
	if cfg.ShardCluster != nil && cfg.ShardRouter == nil {
		return cfg, errors.New("server: ShardCluster requires ShardRouter")
	}
	if cfg.ShardMember && cfg.Store == nil {
		return cfg, errors.New("server: shard member mode requires a store")
	}
	if cfg.Replica != nil {
		if cfg.Dataset != nil {
			return cfg, errors.New("server: Config.Dataset cannot be combined with Replica (the dataset comes from the primary)")
		}
		if cfg.Store == nil {
			cfg.Store = cfg.Replica.Store()
		} else if cfg.Store != cfg.Replica.Store() {
			return cfg, errors.New("server: Config.Store must be the Replica's own store")
		}
	}
	// A shard member may boot over a still-empty store: the router fills it.
	if cfg.Replica == nil && cfg.ShardRouter == nil && !cfg.ShardMember && !storeHasData(cfg.Store) {
		if cfg.Dataset == nil {
			return cfg, errors.New("server: Config.Dataset is required")
		}
		if cfg.Dataset.Len() == 0 {
			return cfg, errors.New("server: initial dataset is empty")
		}
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if math.IsNaN(cfg.Quantum) || math.IsInf(cfg.Quantum, 0) || cfg.Quantum < 0 {
		return cfg, fmt.Errorf("server: quantum %g must be finite and >= 0", cfg.Quantum)
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxInFlight < 1 {
		return cfg, fmt.Errorf("server: max in-flight %d < 1", cfg.MaxInFlight)
	}
	if cfg.MaxDatasetBytes == 0 {
		cfg.MaxDatasetBytes = DefaultMaxDatasetBytes
	}
	if cfg.QueueTimeout == 0 {
		cfg.QueueTimeout = DefaultQueueTimeout
	}
	return cfg, nil
}

// Snapshot is one immutable generation of the served dataset. Requests load
// the current snapshot once and resolve entirely against it, so a concurrent
// reload can never tear a query.
type Snapshot struct {
	// Engine answers queries over this generation.
	Engine *core.Engine
	// Version increases by one per reload (or per committed store batch);
	// cache keys embed it. With a store attached it is monotonic across
	// restarts.
	Version uint64
	// Objects is the dataset size. A router's per-query snapshot leaves it
	// zero: no response renders it, and the router answers info, apply and
	// reload with its own cluster-wide count.
	Objects int
	// Source labels where the dataset came from.
	Source string
	// LoadedAt is when the snapshot became current.
	LoadedAt time.Time
	// IDs maps the engine's dense object IDs to the store's stable IDs;
	// nil (storeless mode) means identity. Responses carry translated IDs.
	IDs []uint64

	// vkey is Version in decimal — the cache-key fragment, rendered once at
	// install time so the cache-hit path formats nothing.
	vkey string
}

// oid translates an engine (dense) object ID to the externally-visible ID.
func (snap *Snapshot) oid(dense int) int {
	if snap.IDs == nil {
		return dense
	}
	return int(snap.IDs[dense])
}

// backend is the data behind the one handler set. The result cache,
// singleflight and worker pool sit in front of it, so no handler knows
// whether it reads the server's own snapshot (localBackend) or a
// scatter-gather cut of a shard cluster (routerBackend).
type backend interface {
	// admit gates a read — a still-syncing replica refuses — and pins the
	// view the whole request resolves against.
	admit() (view, error)
	// admitWrite gates a mutation before its body is read. objects selects
	// the object-level API, which needs a store's stable IDs.
	admitWrite(r *http.Request, objects bool) error
	// apply commits an op batch. The result's Version is the served version
	// after the commit; objects is the live 1-D object count.
	apply(ctx context.Context, ops []store.Op) (res store.ApplyResult, objects int, err error)
	// reload replaces the whole dataset.
	reload(ctx context.Context, ds *uncertain.Dataset, source string) (datasetResponse, error)
	// info describes the data currently served.
	info() datasetResponse
	// health adds the backend's blocks to the /healthz body; the handler
	// supplies what is common. /metrics needs no method: a backend's
	// constructor registers its families on the server's registry.
	health(body map[string]any)
	// close releases what the backend owns.
	close() error
}

// view is one pinned read position of a backend.
type view interface {
	// key names the position inside result-cache keys: any committed write
	// changes it, so stale entries can never match.
	key() string
	// version is the version a batch envelope reports.
	version() uint64
	// snapshot yields the snapshot that answers query point qq at filter
	// depth k.
	snapshot(ctx context.Context, qq float64, k int) (*Snapshot, error)
}

// Server is a concurrent C-PNN query service over a swappable dataset
// snapshot. Create one with New; it is safe for use from any number of
// goroutines.
type Server struct {
	cfg      Config
	snap     atomic.Pointer[Snapshot]
	cc       *cache
	slots    workerSlots
	m        metrics
	mux      *http.ServeMux
	draining atomic.Bool

	// be is the data behind the handlers: the local snapshot (local.go) or
	// the scatter-gather router (shard.go). monitors is the backend's
	// continuous-query subsystem; nil means /v1/monitors answers 501 with
	// monitorsHint. drainCh closes on Drain so /v1/subscribe streams end and
	// Shutdown can finish.
	be           backend
	monitors     *monitor.Monitor
	monitorsHint string
	drainCh      chan struct{}
	drainOnce    sync.Once

	// member is the wire endpoint in member mode.
	member *wireMember

	// Observability: structured logs, the span ring behind /debug/traces,
	// the slow-query ring behind /debug/slowlog, and reg, everything /metrics
	// renders — the server's and its backend's collectors, registered once at
	// construction by whoever owns the numbers, then Config.Metrics. It is
	// private so servers sharing one Config.Metrics never double-emit.
	log     *slog.Logger
	tracer  *obs.Tracer
	slowlog *obs.SlowLog
	reg     *obs.Registry
	started time.Time
	// traceSample counts headerless requests for 1-in-N trace sampling;
	// phaseObs holds the pre-resolved {filter,derive,table,verify} histogram
	// children per evaluating endpoint.
	traceSample atomic.Uint64
	phaseObs    [numEndpoints][4]*obs.Histogram

	reloadMu sync.Mutex // serializes snapshot swaps, not reads
}

// New builds a server around an initial dataset (or an already-populated
// store).
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		cc:      newCache(cfg.CacheEntries, DefaultCacheShards),
		slots:   make(workerSlots, cfg.MaxInFlight),
		drainCh: make(chan struct{}),
		log:     obs.Or(cfg.Logger),
		tracer:  cfg.Tracer,
		slowlog: obs.NewSlowLog(0, cfg.SlowQueryThreshold),
		reg:     obs.NewRegistry(),
		started: time.Now(),
	}
	if s.tracer == nil {
		s.tracer = obs.NewTracer(0)
	}
	// Resolve the per-endpoint phase children once: the query hot path then
	// observes through four pointer-stable histograms instead of building
	// a label key per request. Only the evaluating endpoints have phases.
	phase := obs.NewHistogramVec("cpnn_query_phase_seconds",
		"Per-phase query evaluation latency, from core.Stats.",
		[]string{"phase", "endpoint"}, nil)
	for _, e := range []endpoint{epCPNN, epPNN, epKNN, epBatch} {
		name := endpointNames[e]
		s.phaseObs[e] = [4]*obs.Histogram{
			phase.With("filter", name),
			phase.With("derive", name),
			phase.With("table", name),
			phase.With("verify", name),
		}
	}
	s.reg.Register(obs.CollectorFunc(s.collect))
	s.reg.Register(phase)
	if cfg.ShardRouter != nil {
		s.be, err = newRouterBackend(s)
	} else {
		s.be, err = newLocalBackend(s)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		s.reg.Register(cfg.Metrics)
	}
	s.buildMux()
	return s, nil
}

// Drain flips /healthz to not-ready so load balancers stop routing here
// while in-flight requests finish; queries keep being answered. Open
// /v1/subscribe streams are closed (they would otherwise hold
// http.Server.Shutdown hostage). Call it before http.Server.Shutdown.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Close releases the server's durable resources: the continuous-query
// subsystem stops first, then the store takes a final checkpoint (leaving an
// empty WAL for a fast next boot) and closes, flushing everything to disk.
// Safe without a store.
func (s *Server) Close() error {
	if s.monitors != nil {
		s.monitors.Close()
	}
	return s.be.close()
}

// installLatestView publishes the store's current view as the served
// snapshot, unless an even newer one is already installed (concurrent
// committers race benignly; the highest version wins).
func (s *Server) installLatestView(source string) error {
	v := s.cfg.Store.View()
	eng, err := core.NewEngineWithIndex(v.Dataset, v.Index)
	if err != nil {
		return err
	}
	snap := &Snapshot{
		Engine:   eng,
		Version:  v.Version,
		Objects:  v.Dataset.Len(),
		Source:   source,
		LoadedAt: time.Now(),
		IDs:      v.IDs,
		vkey:     strconv.FormatUint(v.Version, 10),
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if cur := s.snap.Load(); cur == nil || snap.Version > cur.Version {
		s.snap.Store(snap)
		s.cc.Purge()
	}
	return nil
}

// Snapshot returns the current dataset snapshot.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Reload atomically replaces the served dataset: the new engine is built
// entirely off to the side, then one pointer store makes it current. Readers
// that already hold the old snapshot finish against it; the result cache is
// purged (old entries are version-keyed and could never be served anyway —
// the purge just reclaims their memory immediately).
//
// With a store attached the reload is durable: it commits as one atomic
// truncate + bulk-insert batch through the WAL, so the loaded dataset
// survives restarts and the version bump stays monotonic across them.
func (s *Server) Reload(ds *uncertain.Dataset, source string) (*Snapshot, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("server: refusing to load an empty dataset")
	}
	if s.cfg.Store != nil {
		ops, err := store.DatasetOps(ds)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		if _, err := s.cfg.Store.Apply(ops); err != nil {
			return nil, storeError(err)
		}
		s.m.reloads.Add(1)
		if err := s.installLatestView(source); err != nil {
			return nil, err
		}
		return s.snap.Load(), nil
	}
	eng, err := core.NewEngine(ds)
	if err != nil {
		return nil, err
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	var version uint64 = 1
	if old := s.snap.Load(); old != nil {
		version = old.Version + 1
	}
	snap := &Snapshot{
		Engine:   eng,
		Version:  version,
		Objects:  ds.Len(),
		Source:   source,
		LoadedAt: time.Now(),
		vkey:     strconv.FormatUint(version, 10),
	}
	s.snap.Store(snap)
	s.cc.Purge()
	s.m.reloads.Add(1)
	return snap, nil
}

// Handler returns the server's HTTP handler: the mux wrapped in the ingress
// middleware that mints/adopts the request's trace span, collects per-request
// annotations, and feeds the slow-query log.
func (s *Server) Handler() http.Handler { return s.ingress(s.mux) }

func (s *Server) buildMux() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/cpnn", s.handleCPNN)
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/pnn", s.handlePNN)
	s.mux.HandleFunc("/v1/knn", s.handleKNN)
	s.mux.HandleFunc("/v1/dataset", s.handleDataset)
	s.mux.HandleFunc("/v1/objects", s.handleObjects)
	s.mux.HandleFunc("/v1/monitors", s.handleMonitors)
	s.mux.HandleFunc("/v1/subscribe", s.handleSubscribe)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.Handle("/debug/traces", s.tracer)
	s.mux.Handle("/debug/slowlog", s.slowlog)
	if s.cfg.ShardMember {
		s.member = &wireMember{Local: shard.NewLocal(s.cfg.Store)}
		s.mux.HandleFunc("/internal/shard/info", s.handleShardInfo)
		s.mux.HandleFunc("/internal/shard/bound", s.handleShardBound)
		s.mux.HandleFunc("/internal/shard/gather", s.handleShardGather)
		s.mux.HandleFunc("/internal/shard/apply", s.handleShardApply)
	}
}

// snapPoint quantizes a query point to the configured granularity. The
// snapped point is what gets evaluated, so cached and fresh answers for one
// key are identical by construction.
func (s *Server) snapPoint(q float64) float64 {
	if s.cfg.Quantum <= 0 {
		return q
	}
	return math.Round(q/s.cfg.Quantum) * s.cfg.Quantum
}

// workerSlots is the bounded evaluation pool: a semaphore of MaxInFlight
// slots.
type workerSlots chan struct{}

// acquire takes a slot, waiting up to timeout (for ever when timeout <= 0)
// if all are busy; false means the wait expired. The timer exists only for a
// request that actually queues.
func (ws workerSlots) acquire(timeout time.Duration) bool {
	select {
	case ws <- struct{}{}:
		return true
	default:
	}
	var expired <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case ws <- struct{}{}:
		return true
	case <-expired:
		return false
	}
}

// release frees a slot.
func (ws workerSlots) release() { <-ws }

// evaluate runs fn under the bounded worker pool. Admission control is deliberately server-side: the wait for a
// slot is bounded by QueueTimeout, not by any client's connection, because a
// singleflight leader must survive its own client disconnecting — collapsed
// waiters with live connections depend on its result, and the completed
// result still lands in the cache. Waiters abandon early through the context
// handed to cache.Do instead.
func (s *Server) evaluate(fn func() ([]byte, error)) ([]byte, error) {
	if !s.slots.acquire(s.cfg.QueueTimeout) {
		return nil, &httpError{
			status: http.StatusServiceUnavailable,
			msg: fmt.Sprintf("server: overloaded, no worker slot freed within %v",
				s.cfg.QueueTimeout),
		}
	}
	defer s.slots.release()
	s.m.inflight.Add(1)
	defer s.m.inflight.Add(-1)
	start := time.Now()
	out, err := fn()
	s.m.evalNanos.Add(time.Since(start).Nanoseconds())
	s.m.evals.Add(1)
	return out, err
}

// ---- request parsing ---------------------------------------------------

// httpError is an error with a dedicated HTTP status; location, when set,
// becomes the Location header of a redirect.
type httpError struct {
	status   int
	msg      string
	location string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// checkFinite is the one shared guard against NaN/Inf query coordinates: the
// single-query parsers and the batch body validator both route through it,
// so a non-finite coordinate is always a 400, never a 500 from deep inside
// the engine.
func checkFinite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return badRequest("parameter %q: %g is not a finite number", name, v)
	}
	return nil
}

// query reads parameters off a raw query string exactly as net/url's
// url.Values would (a segment holding ';', empty or failing to unescape is
// skipped; '+' and %XX decode; the first match wins), but builds no map and
// allocates only to decode an escaped value. A handler reads all through one.
type query string

func (q query) Get(name string) string {
	for rest := string(q); rest != ""; {
		var seg string
		seg, rest, _ = strings.Cut(rest, "&")
		if seg == "" || strings.Contains(seg, ";") {
			continue
		}
		k, v, _ := strings.Cut(seg, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != name {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

func queryFloat(q query, name string) (float64, error) { return queryFloatDefault(q, name, math.NaN()) }

// queryFloatDefault parses the finite float parameter name, or answers def
// when it is absent; a NaN def makes the parameter required.
func queryFloatDefault(q query, name string, def float64) (float64, error) {
	raw := q.Get(name)
	if raw == "" && math.IsNaN(def) {
		return 0, badRequest("missing required parameter %q", name)
	} else if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, badRequest("parameter %q: %q is not a finite number", name, raw)
	}
	return v, checkFinite(name, v)
}

// queryIntDefault parses the integer parameter name, or answers def when it
// is absent; every integer parameter is a count, so a def below 1 makes it
// required.
func queryIntDefault(q query, name string, def int) (int, error) {
	raw := q.Get(name)
	if raw == "" && def < 1 {
		return 0, badRequest("missing required parameter %q", name)
	} else if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("parameter %q: %q is not an integer", name, raw)
	}
	return v, nil
}

// constraintParam parses and validates the C-PNN constraint, rejecting
// out-of-range P and Delta before any engine work happens.
func constraintParam(q query) (verify.Constraint, error) {
	p, err := queryFloatDefault(q, "p", 0.3)
	if err != nil {
		return verify.Constraint{}, err
	}
	delta, err := queryFloatDefault(q, "delta", 0.01)
	if err != nil {
		return verify.Constraint{}, err
	}
	c := verify.Constraint{P: p, Delta: delta}
	if err := c.Validate(); err != nil {
		return verify.Constraint{}, badRequest("%v", err)
	}
	return c, nil
}

func parseStrategy(raw string) (core.Strategy, error) {
	switch raw {
	case "", "vr":
		return core.VR, nil
	case "refine":
		return core.Refine, nil
	case "basic":
		return core.Basic, nil
	default:
		return 0, badRequest("unknown strategy %q (vr, refine, basic)", raw)
	}
}

// ---- responses ---------------------------------------------------------

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		status = he.status
		if he.location != "" {
			w.Header().Set("Location", he.location)
		}
	} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		status = http.StatusServiceUnavailable
	}
	if status >= 500 {
		s.m.serverErrors.Add(1)
	} else if status >= 400 { // a redirect is not an error
		s.m.clientErrors.Add(1)
	}
	if status == http.StatusServiceUnavailable {
		// Overload shed, drain, or a briefly unavailable store: all are
		// transient, so tell clients when to come back.
		w.Header().Set("Retry-After", sseRetryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

// Header values of a cached body, shared and never mutated: assigning them
// spares Header.Set's two slices a request.
var jsonContentType, xCacheValues = []string{"application/json"}, [...][]string{Miss: {"miss"}, Hit: {"hit"}, Shared: {"shared"}}

func (s *Server) writeCached(w http.ResponseWriter, r *http.Request, body []byte, src Source) {
	obs.ReqInfoFrom(r.Context()).Set("cache", src.String())
	w.Header()["Content-Type"] = jsonContentType
	w.Header()["X-Cache"] = xCacheValues[src]
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// answerJSON is one classified object of a C-PNN or k-NN response.
type answerJSON struct {
	ID     int     `json:"id"`
	L      float64 `json:"l"`
	U      float64 `json:"u"`
	Status string  `json:"status"`
}

// statsJSON carries the deterministic per-query statistics. Timings are
// excluded on purpose: they vary run to run and would break the guarantee
// that cached and fresh responses are byte-identical.
type statsJSON struct {
	Candidates   int      `json:"candidates"`
	Subregions   int      `json:"subregions"`
	FMin         float64  `json:"fmin"`
	Verifiers    []string `json:"verifiers,omitempty"`
	UnknownAfter []int    `json:"unknown_after,omitempty"`
	Refined      int      `json:"refined"`
	Integrations int      `json:"integrations"`
}

type cpnnResponse struct {
	Query      float64      `json:"query"`
	P          float64      `json:"p"`
	Delta      float64      `json:"delta"`
	Strategy   string       `json:"strategy"`
	Version    uint64       `json:"version"`
	Answers    []answerJSON `json:"answers"`
	Candidates []answerJSON `json:"candidates,omitempty"`
	Stats      statsJSON    `json:"stats"`
}

type probabilityJSON struct {
	ID int     `json:"id"`
	P  float64 `json:"p"`
}

type pnnResponse struct {
	Query         float64           `json:"query"`
	Version       uint64            `json:"version"`
	Probabilities []probabilityJSON `json:"probabilities"`
	Stats         statsJSON         `json:"stats"`
}

type knnResponse struct {
	Query   float64      `json:"query"`
	K       int          `json:"k"`
	P       float64      `json:"p"`
	Delta   float64      `json:"delta"`
	Version uint64       `json:"version"`
	Answers []answerJSON `json:"answers"`
}

type datasetResponse struct {
	Version  uint64    `json:"version"`
	Objects  int       `json:"objects"`
	Source   string    `json:"source"`
	LoadedAt time.Time `json:"loaded_at"`
}

// toAnswers converts engine answers to response objects, translating dense
// engine IDs to the snapshot's stable IDs. Translated answers are re-sorted
// by external ID so clients always see ID-ordered output; the identity
// mapping (storeless mode) is already sorted and stays byte-identical.
func toAnswers(in []core.Answer, snap *Snapshot) []answerJSON {
	out := make([]answerJSON, len(in))
	for i, a := range in {
		out[i] = answerJSON{ID: snap.oid(a.ID), L: a.Bounds.L, U: a.Bounds.U, Status: a.Status.String()}
	}
	if snap.IDs != nil {
		slices.SortFunc(out, func(a, b answerJSON) int { return cmp.Compare(a.ID, b.ID) })
	}
	return out
}

// methodNotAllowed answers 405 naming the methods the endpoint accepts.
func (s *Server) methodNotAllowed(w http.ResponseWriter, allow string) {
	s.m.clientErrors.Add(1)
	w.Header().Set("Allow", allow)
	http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
}

// tooLarge maps a MaxBytesReader overflow onto a 413 naming the body; any
// other error yields nil.
func tooLarge(err error, what string) error {
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) {
		return nil
	}
	return &httpError{
		status: http.StatusRequestEntityTooLarge,
		msg:    fmt.Sprintf("%s exceeds the %d-byte limit", what, mbe.Limit),
	}
}

// decodeStrict decodes a size-capped JSON request body into v, rejecting
// unknown fields. noun names the body in the error messages; hint extends
// the malformed-body message.
func decodeStrict(w http.ResponseWriter, r *http.Request, limit int64, noun, hint string, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if tl := tooLarge(err, noun+" body"); tl != nil {
			return tl
		}
		return badRequest("parsing %s body%s: %v", noun, hint, err)
	}
	return nil
}

// ---- handlers ----------------------------------------------------------

// cacheKey appends a result-cache key to b: endpoint kind, the view's key
// fragment, the all flag and the query parameters' bit patterns. Callers
// pass a buffer on their stack, so a cache hit builds its key without
// allocating (cache.Do copies it only on a miss).
func cacheKey(b []byte, kind, vk string, all bool, parts ...uint64) []byte {
	b = append(b, kind...)
	b = append(b, '|')
	b = append(b, vk...)
	b = strconv.AppendBool(append(b, '|'), all)
	for _, p := range parts {
		b = strconv.AppendUint(append(b, '|'), p, 16)
	}
	return b
}

// serve answers one (already quantized) query through the result cache: hit,
// singleflight-collapse onto an identical in-flight evaluation, or take the
// view's snapshot and render it under the worker pool. Every backend and
// every query endpoint routes through here.
func (s *Server) serve(ctx context.Context, ep endpoint, v view, key []byte, qq float64, k int,
	render func(snap *Snapshot) ([]byte, core.Stats, error)) ([]byte, Source, error) {
	return s.cc.Do(ctx, key, func() ([]byte, error) {
		return s.evaluate(func() ([]byte, error) {
			snap, err := v.snapshot(ctx, qq, k)
			if err != nil {
				return nil, err
			}
			body, st, err := render(snap)
			if err == nil {
				s.observePhases(ctx, ep, st)
			}
			return body, err
		})
	})
}

func (s *Server) handleCPNN(w http.ResponseWriter, r *http.Request) {
	s.m.requests[epCPNN].Add(1)
	v, err := s.be.admit()
	if err != nil {
		s.writeError(w, err)
		return
	}
	qs := query(r.URL.RawQuery)
	q, err := queryFloat(qs, "q")
	if err != nil {
		s.writeError(w, err)
		return
	}
	c, err := constraintParam(qs)
	if err != nil {
		s.writeError(w, err)
		return
	}
	strat, err := parseStrategy(qs.Get("strategy"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	all := qs.Get("all") == "1"

	body, src, err := s.cpnnBody(r.Context(), epCPNN, v, s.snapPoint(q), c, strat, all)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeCached(w, r, body, src)
}

// cpnnBody serves one C-PNN point of a view. Both the single-query endpoint
// and every point of a batch request route through here, so they share keys
// — a batch warms the cache for singles and vice versa.
func (s *Server) cpnnBody(ctx context.Context, ep endpoint, v view, qq float64, c verify.Constraint, strat core.Strategy, all bool) ([]byte, Source, error) {
	var kb [128]byte
	key := cacheKey(kb[:0], "cpnn", v.key(), all,
		math.Float64bits(qq), math.Float64bits(c.P), math.Float64bits(c.Delta), uint64(strat))
	return s.serve(ctx, ep, v, key, qq, 1, func(snap *Snapshot) ([]byte, core.Stats, error) {
		return cpnnPayload(snap, qq, c, strat, all)
	})
}

// cpnnPayload evaluates one C-PNN query against a snapshot and renders the
// response body. A gathered mini-view renders through here exactly like the
// local snapshot — its engine filters through the router's scan index, which
// answers bit-identically to an R-tree — so a sharded server's body differs
// from a single server's only in the version field. The engine derives on a
// scratch from core's pool, which never shows in the body.
func cpnnPayload(snap *Snapshot, qq float64, c verify.Constraint, strat core.Strategy, all bool) ([]byte, core.Stats, error) {
	res, err := snap.Engine.CPNN(qq, c, core.Options{Strategy: strat})
	if err != nil {
		return nil, core.Stats{}, err
	}
	resp := cpnnResponse{
		Query:    qq,
		P:        c.P,
		Delta:    c.Delta,
		Strategy: strat.String(),
		Version:  snap.Version,
		Answers:  toAnswers(res.Answers, snap),
		Stats: statsJSON{
			Candidates:   res.Stats.Candidates,
			Subregions:   res.Stats.Subregions,
			FMin:         res.Stats.FMin,
			Verifiers:    res.Stats.VerifiersApplied,
			UnknownAfter: res.Stats.UnknownAfter,
			Refined:      res.Stats.RefinedObjects,
			Integrations: res.Stats.Integrations,
		},
	}
	if all {
		resp.Candidates = toAnswers(res.Candidates, snap)
	}
	body, err := json.Marshal(resp)
	return body, res.Stats, err
}

func (s *Server) handlePNN(w http.ResponseWriter, r *http.Request) {
	s.m.requests[epPNN].Add(1)
	v, err := s.be.admit()
	if err != nil {
		s.writeError(w, err)
		return
	}
	q, err := queryFloat(query(r.URL.RawQuery), "q")
	if err != nil {
		s.writeError(w, err)
		return
	}
	qq := s.snapPoint(q)
	var kb [128]byte
	key := cacheKey(kb[:0], "pnn", v.key(), false, math.Float64bits(qq))
	body, src, err := s.serve(r.Context(), epPNN, v, key, qq, 1,
		func(snap *Snapshot) ([]byte, core.Stats, error) {
			return pnnPayload(snap, qq)
		})
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeCached(w, r, body, src)
}

// pnnPayload evaluates one PNN query against a snapshot and renders the
// response body, like cpnnPayload.
func pnnPayload(snap *Snapshot, qq float64) ([]byte, core.Stats, error) {
	probs, st, err := snap.Engine.PNN(qq, core.Options{})
	if err != nil {
		return nil, core.Stats{}, err
	}
	out := make([]probabilityJSON, len(probs))
	for i, pr := range probs {
		out[i] = probabilityJSON{ID: snap.oid(pr.ID), P: pr.P}
	}
	body, err := json.Marshal(pnnResponse{
		Query:         qq,
		Version:       snap.Version,
		Probabilities: out,
		Stats: statsJSON{
			Candidates: st.Candidates,
			Subregions: st.Subregions,
			FMin:       st.FMin,
			Refined:    st.RefinedObjects,
		},
	})
	return body, st, err
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	s.m.requests[epKNN].Add(1)
	v, err := s.be.admit()
	if err != nil {
		s.writeError(w, err)
		return
	}
	qs := query(r.URL.RawQuery)
	q, err := queryFloat(qs, "q")
	if err != nil {
		s.writeError(w, err)
		return
	}
	c, err := constraintParam(qs)
	if err != nil {
		s.writeError(w, err)
		return
	}
	k, err := queryIntDefault(qs, "k", 0)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if k < 1 || k > maxK {
		s.writeError(w, badRequest("parameter \"k\" must be in [1, %d], got %d", maxK, k))
		return
	}
	all := qs.Get("all") == "1"

	qq := s.snapPoint(q)
	var kb [128]byte
	key := cacheKey(kb[:0], "knn", v.key(), all, math.Float64bits(qq), math.Float64bits(c.P),
		math.Float64bits(c.Delta), uint64(k))
	body, src, err := s.serve(r.Context(), epKNN, v, key, qq, k,
		func(snap *Snapshot) ([]byte, core.Stats, error) {
			return knnPayload(snap, qq, c, k, all)
		})
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeCached(w, r, body, src)
}

// maxK is the largest neighbor count /v1/knn and k-NN monitors accept. A
// k-NN query's table holds about k + (overlap depth) candidates and its
// exact integration grows with k; EXPERIMENTS.md times k up to this bound.
const maxK = 100

// knnPayload evaluates one C-kNN query against a snapshot and renders the
// response body, like cpnnPayload: the satisfying objects, or with all every
// candidate, each with its exact k-NN probability as a point bound.
func knnPayload(snap *Snapshot, qq float64, c verify.Constraint, k int, all bool) ([]byte, core.Stats, error) {
	answers, st, err := snap.Engine.CKNN(qq, c, core.KNNOptions{K: k})
	if err != nil {
		return nil, core.Stats{}, err
	}
	if !all {
		answers = slices.DeleteFunc(answers, func(a core.KNNAnswer) bool { return a.Status != verify.Satisfy })
	}
	body, err := json.Marshal(knnResponse{
		Query:   qq,
		K:       k,
		P:       c.P,
		Delta:   c.Delta,
		Version: snap.Version,
		Answers: toAnswers(answers, snap),
	})
	return body, st, err
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	s.m.requests[epDataset].Add(1)
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.be.info())
	case http.MethodPost:
		if err := s.be.admitWrite(r, false); err != nil {
			s.writeError(w, err)
			return
		}
		ds, err := s.readDataset(w, r)
		if err != nil {
			s.writeError(w, err)
			return
		}
		source := query(r.URL.RawQuery).Get("source")
		if source == "" {
			source = "upload"
		}
		info, err := s.be.reload(r.Context(), ds, source)
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	default:
		s.methodNotAllowed(w, "GET, POST")
	}
}

// readDataset parses and validates a size-capped dataset upload.
func (s *Server) readDataset(w http.ResponseWriter, r *http.Request) (*uncertain.Dataset, error) {
	ds, err := uncertain.Read(http.MaxBytesReader(w, r.Body, s.cfg.MaxDatasetBytes))
	if err != nil {
		if tl := tooLarge(err, "dataset body"); tl != nil {
			return nil, tl
		}
		return nil, badRequest("parsing dataset: %v", err)
	}
	if ds.Len() == 0 {
		return nil, badRequest("dataset body holds no objects")
	}
	if err := ds.Validate(); err != nil {
		return nil, badRequest("invalid dataset: %v", err)
	}
	return ds, nil
}

func snapshotInfo(snap *Snapshot) datasetResponse {
	return datasetResponse{
		Version:  snap.Version,
		Objects:  snap.Objects,
		Source:   snap.Source,
		LoadedAt: snap.LoadedAt,
	}
}

// handleHealthz assembles the fields every shape reports and lets the
// backend add its own blocks (store/pagecache/replication, or shard).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.m.requests[epHealthz].Add(1)
	info := s.be.info()
	body := map[string]any{
		"status":         "ok",
		"version":        info.Version,
		"objects":        info.Objects,
		"build":          obs.Version,
		"uptime_seconds": time.Since(s.started).Seconds(),
	}
	s.be.health(body)
	// Not-ready during drain: load balancers stop sending traffic while
	// requests already here (and any still arriving) keep being served.
	// Not-ready until a replica's first catch-up: a load balancer should not
	// route reads to one that would answer from a partial replay.
	status := http.StatusOK
	if s.draining.Load() {
		body["status"], status = "draining", http.StatusServiceUnavailable
	} else if _, err := s.be.admit(); err != nil {
		body["status"], status = "syncing", http.StatusServiceUnavailable
	}
	if status != http.StatusOK {
		// Retry-After tells well-behaved clients when to probe again.
		w.Header().Set("Retry-After", sseRetryAfter)
	}
	writeJSON(w, status, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.m.requests[epMetrics].Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}
