// Package pnn evaluates probabilistic nearest-neighbor queries over
// uncertain one-dimensional data, reproducing "Probabilistic Verifiers:
// Evaluating Constrained Nearest-Neighbor Queries over Uncertain Data"
// (Cheng, Chen, Mokbel, Chow — ICDE 2008).
//
// An uncertain object is a closed interval (its uncertainty region) plus a
// probability density over it. A Probabilistic Nearest-Neighbor query (PNN)
// returns each object's qualification probability — the chance it is the
// nearest neighbor of a query point. The Constrained PNN (C-PNN) adds a
// probability threshold P and tolerance Δ, letting the engine answer with
// cheap probability bounds instead of exact integrals: candidates are pruned
// by an R-tree filter, reduced to distance distributions by a shared
// derivation stage (parallel per-candidate folds serving both the 1-D and
// 2-D engines, with query-independent discretizations of analytic pdfs
// memoized across queries), bounded by the RS / L-SR / U-SR probabilistic
// verifiers, and only the stragglers reach incremental refinement.
//
// Quickstart:
//
//	ds := pnn.NewDataset([]pnn.PDF{
//		pnn.MustUniform(8, 18),
//		pnn.MustUniform(9, 13),
//	})
//	eng, err := pnn.New(ds)
//	if err != nil { ... }
//	res, err := eng.CPNN(12, pnn.Constraint{P: 0.3, Delta: 0.01}, pnn.Options{})
//	for _, a := range res.Answers {
//		fmt.Println(a.ID, a.Bounds)
//	}
//
// The package is a facade over the building blocks in internal/: the query
// engine (internal/core), verifiers (internal/verify), subregion tables
// (internal/subregion), distance distributions (internal/dist), the R-tree
// (internal/rtree) and refinement integrators (internal/refine).
package pnn

import (
	"io"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/monitor"
	"repro/internal/pdf"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// Engine answers PNN, C-PNN, min/max and constrained k-NN queries over one
// dataset. Create one with New.
type Engine = core.Engine

// New indexes a dataset and returns a query engine.
func New(ds *Dataset) (*Engine, error) { return core.NewEngine(ds) }

// Core query types, re-exported from the engine.
type (
	// Options tunes query evaluation; the zero value uses the paper's
	// defaults (VR strategy, RS → L-SR → U-SR chain, 300-bar histograms).
	Options = core.Options
	// Result is a C-PNN answer set with statistics.
	Result = core.Result
	// Answer is one classified object of a result.
	Answer = core.Answer
	// Stats records per-phase query costs.
	Stats = core.Stats
	// Strategy selects the evaluation method.
	Strategy = core.Strategy
	// Probability pairs an object ID with its exact qualification
	// probability (PNN output).
	Probability = core.Probability
	// KNNOptions tunes constrained k-NN evaluation.
	KNNOptions = core.KNNOptions
	// KNNAnswer is one object of a constrained k-NN result.
	KNNAnswer = core.KNNAnswer
)

// Batch evaluation, re-exported from the engine: CPNNBatch — the same method
// on Engine and Engine2D — fans many query points out over a bounded worker
// pool, each running CPNN's body on a pooled scratch, with answers identical
// to calling CPNN per point.
type (
	// BatchOptions tunes batch evaluation (embedded Options + Workers).
	BatchOptions = core.BatchOptions
	// BatchResult is one Result per query point plus batch statistics.
	BatchResult = core.BatchResult
	// BatchStats aggregates the costs of one batch evaluation.
	BatchStats = core.BatchStats
)

// Evaluation strategies (paper §V).
const (
	// StrategyVR runs verification then incremental refinement — the
	// paper's solution and the default.
	StrategyVR = core.VR
	// StrategyRefine skips verification.
	StrategyRefine = core.Refine
	// StrategyBasic computes every candidate's exact probability.
	StrategyBasic = core.Basic
)

// Constraint and classification types, re-exported from the verifier layer.
type (
	// Constraint carries the C-PNN threshold P ∈ (0,1] and tolerance
	// Δ ∈ [0,1] of Definition 1.
	Constraint = verify.Constraint
	// Bounds is a closed probability bound [L, U].
	Bounds = verify.Bounds
	// Status is a classifier label.
	Status = verify.Status
	// Verifier is one bound-tightening pass; see DefaultVerifiers.
	Verifier = verify.Verifier
)

// Classifier labels.
const (
	// StatusUnknown means the bounds cannot yet decide the object.
	StatusUnknown = verify.Unknown
	// StatusSatisfy means the object is part of the answer.
	StatusSatisfy = verify.Satisfy
	// StatusFail means the object can never satisfy the query.
	StatusFail = verify.Fail
)

// DefaultVerifiers returns the paper's verifier chain: RS, L-SR, U-SR, in
// ascending cost order.
func DefaultVerifiers() []Verifier { return verify.DefaultChain() }

// Data-model types, re-exported from the uncertainty layer.
type (
	// Dataset is an immutable collection of uncertain objects.
	Dataset = uncertain.Dataset
	// Object is one uncertain value: an uncertainty region with a pdf.
	Object = uncertain.Object
	// GenOptions configures the synthetic dataset generators.
	GenOptions = uncertain.GenOptions
	// PDF is a probability density over a closed interval.
	PDF = pdf.PDF
	// Uniform is the uniform density over an interval.
	Uniform = pdf.Uniform
	// TruncGaussian is a Gaussian truncated to an interval.
	TruncGaussian = pdf.TruncGaussian
	// Histogram is a piecewise-constant density.
	Histogram = pdf.Histogram
)

// NewDataset builds a dataset from pdfs, assigning sequential IDs.
func NewDataset(pdfs []PDF) *Dataset { return uncertain.NewDataset(pdfs) }

// NewUniform returns the uniform pdf over [lo, hi].
func NewUniform(lo, hi float64) (Uniform, error) { return pdf.NewUniform(lo, hi) }

// MustUniform is NewUniform that panics on error, for literals and tests.
func MustUniform(lo, hi float64) Uniform { return pdf.MustUniform(lo, hi) }

// NewGaussian returns a Gaussian with the given mean and standard deviation
// truncated to [lo, hi].
func NewGaussian(lo, hi, mu, sigma float64) (TruncGaussian, error) {
	return pdf.NewTruncGaussian(lo, hi, mu, sigma)
}

// PaperGaussian returns the paper's §V.5 Gaussian parameterization: mean at
// the region center, sigma = width/6.
func PaperGaussian(lo, hi float64) (TruncGaussian, error) { return pdf.PaperGaussian(lo, hi) }

// NewHistogram builds a histogram pdf from bin edges and non-negative bin
// weights (normalized to unit mass).
func NewHistogram(edges, weights []float64) (*Histogram, error) {
	return pdf.NewHistogram(edges, weights)
}

// GenerateUniform generates a synthetic dataset of uniform-pdf objects.
func GenerateUniform(opt GenOptions) (*Dataset, error) { return uncertain.GenerateUniform(opt) }

// GenerateGaussian generates a synthetic dataset of truncated-Gaussian
// objects discretized to the given number of histogram bars.
func GenerateGaussian(opt GenOptions, bars int) (*Dataset, error) {
	return uncertain.GenerateGaussian(opt, bars)
}

// LongBeachOptions mirrors the paper's Long Beach workload: 53,144 intervals
// over a 10K-unit dimension, calibrated to the paper's ~96-object candidate
// sets.
func LongBeachOptions(seed int64) GenOptions { return uncertain.LongBeachOptions(seed) }

// QueryWorkload returns n deterministic query points over the generation
// domain.
func QueryWorkload(n int, domain float64, seed int64) []float64 {
	return uncertain.QueryWorkload(n, domain, seed)
}

// ReadQueries parses a query-workload file (one finite point per line, '#'
// comments allowed) — the format of cpnn-query -batch.
func ReadQueries(r io.Reader) ([]float64, error) { return uncertain.ReadQueries(r) }

// WriteQueries serializes a query workload, one point per line.
func WriteQueries(w io.Writer, qs []float64) error { return uncertain.WriteQueries(w, qs) }

// Serving layer, re-exported from internal/server: a concurrent HTTP/JSON
// query service with a sharded result cache, singleflight collapsing of
// identical in-flight queries, a bounded evaluation pool and atomic dataset
// snapshot reloads.
type (
	// Server is a long-lived concurrent C-PNN query service.
	Server = server.Server
	// ServerConfig configures a Server; only Dataset is required.
	ServerConfig = server.Config
	// Snapshot is one immutable generation of a server's dataset.
	Snapshot = server.Snapshot
)

// NewServer builds a query service around an initial dataset. Serve it with
// http.ListenAndServe(addr, srv.Handler()) or mount Handler() in a larger
// mux; cmd/cpnn-serve is the stand-alone binary.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Durable store, re-exported from internal/store: a write-ahead-logged,
// checkpointed, crash-recovering uncertain-object store with MVCC views and
// live (incremental, copy-on-write) filter-index maintenance. Attach one to
// a ServerConfig to make every server mutation durable, or drive it
// directly with Apply.
type (
	// Store is the durable mutation subsystem. Open one with OpenStore.
	Store = store.Store
	// StoreOptions tunes durability (fsync, checkpoint cadence).
	StoreOptions = store.Options
	// StoreView is one immutable MVCC generation: dataset, stable-ID
	// mapping, filter index, 2-D disks.
	StoreView = store.View
	// StoreOp is one logged operation; build them with the *Op helpers.
	StoreOp = store.Op
	// StoreStats snapshots the store's operational counters.
	StoreStats = store.Stats
	// StoreApplyResult reports a committed batch (assigned IDs, version).
	StoreApplyResult = store.ApplyResult
	// StoreDisk is one live 2-D object of a view.
	StoreDisk = store.Disk
)

// OpenStore opens (creating or crash-recovering) a durable store in dir.
func OpenStore(dir string, opt StoreOptions) (*Store, error) { return store.Open(dir, opt) }

// InsertObjectOp returns the op inserting a 1-D object (uniform or
// histogram pdf); the store assigns its stable ID at commit.
func InsertObjectOp(p PDF) StoreOp { return store.InsertObject(p) }

// UpdateObjectOp returns the op replacing object id's pdf.
func UpdateObjectOp(id uint64, p PDF) StoreOp { return store.UpdateObject(id, p) }

// InsertDiskOp returns the op inserting a 2-D disk object.
func InsertDiskOp(c Circle) StoreOp { return store.InsertDisk(c) }

// UpdateDiskOp returns the op replacing object id's disk region.
func UpdateDiskOp(id uint64, c Circle) StoreOp { return store.UpdateDisk(id, c) }

// DeleteObjectOp returns the op removing object id (either family).
func DeleteObjectOp(id uint64) StoreOp { return store.Delete(id) }

// TruncateOp returns the op removing every object.
func TruncateOp() StoreOp { return store.Truncate() }

// DatasetToOps converts a dataset into the truncate+insert batch that loads
// it durably.
func DatasetToOps(ds *Dataset) ([]StoreOp, error) { return store.DatasetOps(ds) }

// EngineFromView wraps a store view's dataset and incrementally-maintained
// index in a query engine without rebuilding anything. Engine answer IDs
// are the view's dense IDs; translate through view.IDs for stable IDs.
func EngineFromView(v *StoreView) (*Engine, error) {
	return core.NewEngineWithIndex(v.Dataset, v.Index)
}

// Change feed, re-exported from internal/store: every committed batch
// publishes one StoreDelta (the new view plus changed-object rectangles) to
// Store.Watch subscribers — the substrate of continuous monitoring.
type (
	// StoreDelta is one committed group's effect.
	StoreDelta = store.Delta
	// StoreChange is one changed object with its old/new MBRs.
	StoreChange = store.Change
	// StoreSub is one change-feed subscription (Store.Watch).
	StoreSub = store.Sub
)

// Continuous queries, re-exported from internal/monitor: standing
// C-PNN/PNN/k-NN queries maintained incrementally over the change feed of a
// store, or of every member store of a shard cluster. Each evaluation's
// critical distance (the filtering bound f_min, or f_k for k-NN) becomes an
// influence interval indexed in an R-tree; a committed batch spatially joins
// its changed rectangles against those intervals and re-evaluates only the
// queries it can possibly affect — answer updates are pushed to subscribers.
type (
	// Monitor maintains standing queries over a store or a shard cluster.
	// Create with NewMonitor.
	Monitor = monitor.Monitor
	// MonitorConfig configures a Monitor: set Store to stand it on one store,
	// or Source (see NewShardMonitorSource) to stand it on a cluster.
	MonitorConfig = monitor.Config
	// MonitorSource is what a Monitor stands on: member stores plus an
	// evaluator over them.
	MonitorSource = monitor.Source
	// MonitorSpec describes one standing query.
	MonitorSpec = monitor.Spec
	// MonitorKind selects the standing-query flavor (cpnn, pnn, knn).
	MonitorKind = monitor.Kind
	// MonitorState is a snapshot of one standing query.
	MonitorState = monitor.State
	// MonitorUpdate is one pushed answer change.
	MonitorUpdate = monitor.Update
	// MonitorSubscription consumes pushed updates.
	MonitorSubscription = monitor.Subscription
	// MonitorEvent is one subscription delivery (update or lagged).
	MonitorEvent = monitor.Event
	// MonitorStats snapshots the monitor's counters (re-evals, pruned, ...).
	MonitorStats = monitor.Stats
)

// Standing-query kinds.
const (
	// MonitorCPNN is a standing constrained PNN.
	MonitorCPNN = monitor.KindCPNN
	// MonitorPNN is a standing unconstrained PNN.
	MonitorPNN = monitor.KindPNN
	// MonitorKNN is a standing constrained k-NN.
	MonitorKNN = monitor.KindKNN
)

// Subscription event types.
const (
	// MonitorEventUpdate carries a changed answer.
	MonitorEventUpdate = monitor.EventUpdate
	// MonitorEventLagged reports dropped updates on a slow subscriber.
	MonitorEventLagged = monitor.EventLagged
)

// NewMonitor builds and starts a continuous-query monitor over the change
// feeds of cfg.Store, or of the cluster behind cfg.Source.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) { return monitor.New(cfg) }

// NewShardMonitorSource returns the MonitorConfig.Source of an in-process
// cluster: the monitor joins every member store's change feed and
// re-evaluates through r, so standing answers always match a scatter-gather
// read. stores must be the cluster's member stores (ShardCluster.Stores).
func NewShardMonitorSource(r *ShardRouter, stores []*Store) (MonitorSource, error) {
	return shard.NewMonitorSource(r, stores)
}

// Replication, re-exported from internal/replica: a primary streams its WAL
// to followers over TCP (raw payload bytes, so replicas are byte-identical);
// each follower replays the stream into its own durable store and publishes
// the same MVCC views, change feed and monitors the primary would — attach
// the Follower to a ServerConfig (field Replica) for a read replica that
// serves 503 until caught up and redirects writes to the primary.
type (
	// ReplicationServer streams a store's WAL to followers. Create with
	// StartReplication.
	ReplicationServer = replica.Server
	// ReplicationConfig configures a ReplicationServer; Store and Addr are
	// required.
	ReplicationConfig = replica.ServerConfig
	// ReplicationStats counts followers, shipped records/bytes, snapshots.
	ReplicationStats = replica.ServerStats
	// Follower replicates a primary's WAL into a follower store. Create
	// with StartFollower over an OpenFollowerStore store.
	Follower = replica.Follower
	// FollowerConfig configures a Follower; Store and Primary are required.
	FollowerConfig = replica.FollowerConfig
	// FollowerStats snapshots a follower's replication counters and lag.
	FollowerStats = replica.FollowerStats
	// ReplicationLag measures a follower's distance behind its primary in
	// versions, seconds and WAL bytes.
	ReplicationLag = replica.Lag
	// StoreRole says whether a store accepts local writes (primary) or only
	// replicated ones (follower).
	StoreRole = store.Role
)

// ErrFollowerStore is the error a follower store's Apply returns: local
// writes must be routed to the primary.
var ErrFollowerStore = store.ErrFollower

// OpenFollowerStore opens (creating or crash-recovering) a follower store in
// dir: local writes are refused, only a Follower's replicated commits apply.
func OpenFollowerStore(dir string, opt StoreOptions) (*Store, error) {
	return store.OpenFollower(dir, opt)
}

// StartReplication starts streaming a store's WAL to followers.
func StartReplication(cfg ReplicationConfig) (*ReplicationServer, error) {
	return replica.StartServer(cfg)
}

// StartFollower connects a follower store to a primary's replication address
// and keeps it caught up; see examples/replicaset for the full loop.
func StartFollower(cfg FollowerConfig) (*Follower, error) { return replica.StartFollower(cfg) }

// Two-dimensional support (the paper's §IV-A extension): disk-shaped
// uncertainty regions reduce to distance pdfs and run the same pipeline as
// the 1-D engine, under the same Options and BatchOptions.
type (
	// Engine2D answers C-PNN queries over planar uncertain objects: CPNN,
	// CPNNScratch, CPNNBatch, PNN and PNNScratch, with a Point for the query.
	Engine2D = core.Engine2D
	// Object2D is a disk-shaped uncertain object.
	Object2D = core.Object2D
	// Point is a point in the plane.
	Point = geom.Point
	// Circle is a disk-shaped uncertainty region.
	Circle = geom.Circle
)

// New2D indexes planar uncertain objects and returns a 2-D query engine.
func New2D(objs []Object2D) (*Engine2D, error) { return core.NewEngine2D(objs) }

// Sharded scatter-gather serving (internal/shard): a store's domain split
// into K spatial shards, writes routed by owning shard, queries fanned only
// to shards whose extent intersects the candidate ball, and the merged
// candidates verified by one exact single-engine pass — answers are
// byte-identical to a single store's.
type (
	// ShardCluster is a set of locally-open member stores plus routing
	// metadata. Create with CreateShardCluster or OpenShardCluster.
	ShardCluster = shard.Cluster
	// ShardMeta is the durable cluster layout (member count, routing cuts,
	// cluster-wide ID counter).
	ShardMeta = shard.Meta
	// ShardRouter is the scatter-gather front of a shard cluster.
	ShardRouter = shard.Router
	// ShardRouterConfig assembles a ShardRouter over Members and Cuts.
	ShardRouterConfig = shard.RouterConfig
	// ShardMember is one shard in a router's view: a local store or a
	// remote process speaking the wire protocol.
	ShardMember = shard.Member
	// ShardStats snapshots a router's fan-out, retry and skew counters.
	ShardStats = shard.Stats
)

// ErrShardUnavailable marks a query or write that needed an unreachable
// member; servers map it to 503 + Retry-After.
var ErrShardUnavailable = shard.ErrUnavailable

// CreateShardCluster partitions a store view's objects into k STR-packed
// shards under dir, preserving every stable ID.
func CreateShardCluster(dir string, k int, view *StoreView, opt StoreOptions) (*ShardCluster, error) {
	return shard.CreateCluster(dir, k, view, opt)
}

// OpenShardCluster opens every member store of an existing cluster.
func OpenShardCluster(dir string, opt StoreOptions) (*ShardCluster, error) {
	return shard.OpenCluster(dir, opt)
}

// SplitStore partitions an existing single-store directory into a k-shard
// cluster under dstDir, leaving the source untouched.
func SplitStore(srcDir, dstDir string, k int, opt StoreOptions) (ShardMeta, error) {
	return shard.SplitStore(srcDir, dstDir, k, opt)
}
