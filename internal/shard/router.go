package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/geom"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/pdf"
	"repro/internal/store"
	"repro/internal/uncertain"
)

// Obs bundles the router's optional observability sinks. Every field may be
// nil (or the whole struct zero): instrumentation degrades to a no-op.
type Obs struct {
	// Tracer records one child span per member Bound/Gather/Apply hop; the
	// child's context rides the wire on obs.TraceHeader, so remote member
	// servers join the same trace.
	Tracer *obs.Tracer
	// Logger receives structured router events (member failures, retries).
	Logger *slog.Logger
	// MemberSeconds observes per-member hop latency, labeled
	// {phase=bound|gather|apply, shard}.
	MemberSeconds *obs.HistogramVec
	// Fanout observes members read per gather (the fan-out distribution).
	Fanout *obs.Histogram
}

// RouterConfig assembles a Router.
type RouterConfig struct {
	// Members are the shards, in cut order.
	Members []Member
	// Cuts are the K-1 routing boundaries (see Meta.Cuts).
	Cuts []float64
	// NextID seeds the cluster-wide ID counter; the router uses the max of
	// this and every member's durable counter.
	NextID uint64
	// Obs wires tracing, logging and histograms; zero disables all three.
	Obs Obs
}

// Router is the scatter-gather front of a shard cluster. It owns stable-ID
// assignment and the ID→shard owner map, routes writes to the owning shard,
// and answers queries by merging per-shard filter bounds and candidates into
// one exact single-engine evaluation. One router must be the only writer of
// its cluster — its cached member extents decide which members a query may
// skip, and only its own writes grow them (HTTP members enforce this with
// the claim, see ClaimHeader); reads are safe from any number of goroutines.
type Router struct {
	members []Member
	cuts    []float64
	obs     Obs
	log     *slog.Logger

	// wmu serializes writes: owner map, ID counter, per-shard counts.
	wmu      sync.Mutex
	owner    map[uint64]int // live stable ID -> owning shard
	nextID   uint64
	perShard []int // live objects per shard (skew metric)

	// emu guards the cached member extents. A query skips every member
	// whose cached extent provably misses its candidate ball, dead or alive,
	// so the cache must cover every object a member holds: writes grow it
	// before they commit, a Bound reply only grows it, and only an exact Info
	// (boot, resync under wmu) or a committed truncate barrier shrinks it.
	emu     sync.Mutex
	extents []extentCache

	queries, retries, unavailable atomic.Uint64
	boundContacts, gatherContacts atomic.Uint64
	mergeNanos                    atomic.Int64
}

type extentCache struct {
	rect geom.Rect
	has  bool // member holds objects
}

// reaches reports whether the extent may hold an object whose near point
// lies within bound of q (every extent reaches an infinite bound).
func (e extentCache) reaches(q geom.Point, bound float64) bool {
	return e.has && e.rect.MinDist(q) <= bound
}

// NewRouter boots a router: every member must be reachable once so the
// owner map and ID counter can be recovered from durable state.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Members) < 1 {
		return nil, fmt.Errorf("shard: router needs at least one member")
	}
	if len(cfg.Cuts) != len(cfg.Members)-1 {
		return nil, fmt.Errorf("shard: %d cuts for %d members", len(cfg.Cuts), len(cfg.Members))
	}
	if !sort.Float64sAreSorted(cfg.Cuts) {
		return nil, fmt.Errorf("shard: cuts are not ascending")
	}
	r := &Router{
		members:  cfg.Members,
		cuts:     append([]float64(nil), cfg.Cuts...),
		obs:      cfg.Obs,
		log:      obs.Or(cfg.Obs.Logger),
		owner:    map[uint64]int{},
		nextID:   cfg.NextID,
		perShard: make([]int, len(cfg.Members)),
		extents:  make([]extentCache, len(cfg.Members)),
	}
	if r.nextID == 0 {
		r.nextID = 1
	}
	for i, m := range cfg.Members {
		info, err := m.Info()
		if err != nil {
			return nil, fmt.Errorf("shard %d: boot: %w: %v", i, ErrUnavailable, err)
		}
		for _, id := range info.IDs1D {
			if prev, ok := r.owner[id]; ok {
				return nil, fmt.Errorf("shard: object %d owned by both shard %d and %d", id, prev, i)
			}
			r.owner[id] = i
		}
		r.perShard[i] = len(info.IDs1D)
		if info.NextID > r.nextID {
			r.nextID = info.NextID
		}
		r.extents[i] = extentCache{rect: info.Extent, has: info.HasExtent}
	}
	return r, nil
}

// Shards returns the member count.
func (r *Router) Shards() int { return len(r.members) }

// Objects returns the cluster-wide live object count.
func (r *Router) Objects() int {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	return len(r.owner)
}

// Close closes every member.
func (r *Router) Close() error {
	var first error
	for _, m := range r.members {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// VersionSum returns the sum of member versions — the cluster's reported
// snapshot version (monotonic: member versions only grow).
func (r *Router) VersionSum() uint64 {
	var sum uint64
	for _, m := range r.members {
		sum += m.Version()
	}
	return sum
}

// VersionsKey renders the member version vector for cache keys. The vector,
// not the sum: distinct cuts can share a sum.
func (r *Router) VersionsKey() string {
	var b strings.Builder
	for i, m := range r.members {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.FormatUint(m.Version(), 10))
	}
	return b.String()
}

// ---- writes ------------------------------------------------------------

// Apply validates, routes and commits an op batch. Semantics mirror a
// single store's Apply: inserts are assigned cluster-unique stable IDs in
// op order, updates and deletes address the owning shard (an unknown ID is
// store.ErrUnknownID), truncation clears every shard. Validation is
// all-up-front, so an invalid batch touches nothing; a member failure
// mid-batch leaves the shards it already reached committed (per-shard
// atomicity, not global) and returns ErrUnavailable. The result's Version
// is the cluster version sum; Seq is meaningless across shards and
// reported as 0.
func (r *Router) Apply(ctx context.Context, ops []store.Op) (store.ApplyResult, error) {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	// The store's own validator over the cluster-wide owner map: the router
	// accepts exactly what a member will. What is left to decide is placement.
	live := func(id uint64) bool { _, ok := r.owner[id]; return ok }
	assigned, ids, err := store.ValidateOps(ops, live, r.nextID, false)
	if err != nil {
		return store.ApplyResult{}, err
	}
	// Execute in segments: runs of ops between truncates preserve per-shard
	// order; a truncate is a barrier applied to every shard.
	k := len(r.members)
	flushSeg := func(seg [][]store.Op) error {
		for i := 0; i < k; i++ {
			if len(seg[i]) == 0 {
				continue
			}
			payload, err := store.EncodeOps(seg[i])
			if err != nil {
				return err
			}
			if err := r.applyMember(ctx, i, payload); err != nil {
				return err
			}
		}
		return nil
	}
	seg := make([][]store.Op, k)
	commitErr := func(err error) (store.ApplyResult, error) {
		// Members already flushed have committed; resync the owner map from
		// the shards' durable truth so the router stays coherent.
		r.refreshOwnersLocked()
		return store.ApplyResult{}, err
	}
	for _, op := range assigned {
		if op.Code == store.OpTruncate {
			if err := flushSeg(seg); err != nil {
				return commitErr(err)
			}
			barrier := make([][]store.Op, k)
			for i := range barrier {
				barrier[i] = []store.Op{op}
			}
			if err := flushSeg(barrier); err != nil {
				return commitErr(err)
			}
			// Every member is empty now; the ops after the barrier grow the
			// extents again.
			r.emu.Lock()
			clear(r.extents)
			r.emu.Unlock()
			seg = make([][]store.Op, k)
			r.owner = map[uint64]int{}
			r.perShard = make([]int, k)
			continue
		}
		// Placement: the owner map is kept current op by op (so a later
		// failure resync starts close), which makes it the in-batch record
		// too — an ID stays on the shard that owns it, and only a new object
		// is placed, by its region centre through the cuts.
		shard, owned := r.owner[op.ID]
		var region geom.Rect
		if op.PDF != nil {
			region = geom.RectFromInterval(op.PDF.Support())
		}
		switch {
		case op.Code == store.OpDelete:
			r.perShard[shard]--
			delete(r.owner, op.ID)
		case !owned:
			shard = ShardFor(region.Center().X, r.cuts)
			r.owner[op.ID] = shard
			r.perShard[shard]++
		}
		// An upsert grows its owner's cached extent before it commits, so no
		// query can read the new version and skip the owner on an extent
		// that misses the object.
		if op.PDF != nil {
			r.growExtent(shard, region)
		}
		seg[shard] = append(seg[shard], op)
		if op.ID >= r.nextID {
			r.nextID = op.ID + 1
		}
	}
	if err := flushSeg(seg); err != nil {
		return commitErr(err)
	}
	return store.ApplyResult{Version: r.VersionSum(), IDs: ids}, nil
}

// applyMember commits one encoded segment on one member under a traced,
// timed hop.
func (r *Router) applyMember(ctx context.Context, i int, payload []byte) error {
	mctx, sp := r.obs.Tracer.StartSpan(ctx, "shard", "member.apply")
	sp.SetAttr("shard", strconv.Itoa(i))
	start := time.Now()
	_, err := r.members[i].Apply(mctx, payload)
	r.obs.MemberSeconds.With("apply", strconv.Itoa(i)).Observe(time.Since(start).Seconds())
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		r.log.Warn("member apply failed", "shard", i, "err", err, "trace_id", obs.TraceID(ctx))
		return fmt.Errorf("shard %d: apply: %w: %v", i, ErrUnavailable, err)
	}
	sp.End()
	return nil
}

// refreshOwnersLocked rebuilds the owner map and the extent cache from member
// truth after a partial write failure; unreachable members keep their
// previous entries.
func (r *Router) refreshOwnersLocked() {
	owner := map[uint64]int{}
	perShard := make([]int, len(r.members))
	for i, m := range r.members {
		info, err := m.Info()
		if err != nil {
			for id, shard := range r.owner {
				if shard == i {
					owner[id] = i
					perShard[i]++
				}
			}
			continue
		}
		for _, id := range info.IDs1D {
			owner[id] = i
		}
		perShard[i] = len(info.IDs1D)
		if info.NextID > r.nextID {
			r.nextID = info.NextID
		}
		// Exact under wmu: no write of this router is in flight.
		r.emu.Lock()
		r.extents[i] = extentCache{rect: info.Extent, has: info.HasExtent}
		r.emu.Unlock()
	}
	r.owner, r.perShard = owner, perShard
}

// Reload replaces the cluster's contents with a dataset: one truncate
// barrier, then routed bulk inserts with fresh stable IDs in dataset order
// (a single store's DatasetOps batch, placed).
func (r *Router) Reload(ctx context.Context, ds *uncertain.Dataset) (store.ApplyResult, error) {
	ops, err := store.DatasetOps(ds)
	if err != nil {
		return store.ApplyResult{}, err
	}
	return r.Apply(ctx, ops)
}

// ---- queries -----------------------------------------------------------

// Gathered is the merged result of one scatter-gather pass: a mini-view
// holding exactly the cluster's candidate objects for the query, ready for
// a standard single-engine evaluation.
type Gathered struct {
	// View holds the merged candidates: Dataset, stable IDs and a scan Index
	// (filter.NewScan) — they are the candidate set already, so an engine
	// over the view filters them in one pass instead of bulk-loading an
	// R-tree per query. The index is read-only.
	View *store.View
	// Versions is the per-member consistency cut the answer corresponds to.
	Versions []uint64
	// Version is the cut's sum — the cluster snapshot version.
	Version uint64
	// Contacted counts members that answered a bound hop: the member nearest
	// the query plus any whose cached extent reached its bound. Fanout counts
	// members the gather phase actually read (the fan-out metric).
	Contacted, Fanout int
	// Bound is the pruning radius of the final gather pass.
	Bound float64
}

// memberRead is one member's part in one Gather.
type memberRead struct {
	// ver and ext stand for the member while no hop reads it: its version,
	// read before its cached extent, so the extent covers every object the
	// version holds (writes grow the extent before they commit).
	ver uint64
	ext extentCache
	// bounded is set once a bound hop is made; info and err are its reply.
	bounded bool
	info    BoundInfo
	err     error
	// read is set while the current gather pass reads the member.
	read  bool
	items []Item
	gver  uint64
	gerr  error
}

// Gather runs the scatter-gather for query point q with filter depth k (1
// for C-PNN/PNN, the query's K for k-NN). It bounds the member whose cached
// extent is nearest q, in-line: that member's k-th far-point distance caps
// the global filter bound (§IV-A: no object with a near point beyond it is a
// candidate). Only members whose cached extent reaches the cap are bounded
// too, in parallel; the k smallest far distances merge into the bound, and
// candidates are gathered from the members whose extent meets the candidate
// ball. Every other member is skipped — not contacted at all — and enters
// the cut at the version read before its cached extent. If the bound moved
// between the phases (a concurrent write retired a witness), the pass
// retries with the bound recomputed from the gathered set, re-checking the
// skipped members against it, so the returned candidates are always exactly
// the candidate set of the returned consistency cut. A member failure fails
// the query with ErrUnavailable unless its last-known extent provably misses
// the ball; a member claimed by another router fails it regardless.
func (r *Router) Gather(ctx context.Context, q float64, k int) (*Gathered, error) {
	if math.IsNaN(q) || math.IsInf(q, 0) {
		return nil, fmt.Errorf("shard: non-finite query point %g", q)
	}
	if k < 1 {
		return nil, fmt.Errorf("shard: filter depth %d < 1", k)
	}
	r.queries.Add(1)
	qp := geom.Point{X: q, Y: 0}
	ms := make([]memberRead, len(r.members))
	for i, m := range r.members {
		ms[i].ver = m.Version()
	}
	r.emu.Lock()
	for i := range ms {
		ms[i].ext = r.extents[i]
	}
	r.emu.Unlock()

	// Bound phase: the nearest member in-line, then every member whose
	// cached extent reaches its bound (at K = 4, usually none).
	first := r.nearest(ms, qp)
	ms[first].bounded = true
	r.bound(ctx, &ms[first], first, q, k)
	bound := kth(ms[first].info.Fars, k)
	var hops []int
	for i := range ms {
		if i != first && ms[i].ext.reaches(qp, bound) {
			ms[i].bounded = true
			hops = append(hops, i)
		}
	}
	start := time.Now()
	if len(hops) > 0 {
		fan(hops, func(i int) { r.bound(ctx, &ms[i], i, q, k) })
		start = time.Now()
		var fars []float64
		for i := range ms {
			if ms[i].bounded && ms[i].err == nil {
				fars = append(fars, ms[i].info.Fars...)
			}
		}
		sort.Float64s(fars)
		bound = kth(fars, k)
	}
	contacted := 0
	for i := range ms {
		if ms[i].bounded && ms[i].err == nil {
			contacted++
		}
	}
	r.boundContacts.Add(uint64(contacted))
	if contacted == 0 {
		r.unavailable.Add(1)
		r.log.Warn("no member answered the bound phase", "trace_id", obs.TraceID(ctx))
		return nil, fmt.Errorf("shard: %w: no member answered the bound phase: %w", ErrUnavailable, ms[first].err)
	}
	r.mergeNanos.Add(time.Since(start).Nanoseconds())

	var reads []int
	for attempt := 0; ; attempt++ {
		reads = reads[:0]
		for i := range ms {
			m := &ms[i]
			switch {
			case m.err != nil:
				// A dead member is tolerable only while its last-known extent
				// provably misses the candidate ball; its data cannot have
				// moved while dead (writes flow through this router and fail
				// loudly). A claim conflict means another router writes it.
				if m.ext.reaches(qp, bound) || errors.Is(m.err, ErrSuperseded) {
					r.unavailable.Add(1)
					return nil, fmt.Errorf("shard %d: bound: %w: %v", i, ErrUnavailable, m.err)
				}
				m.read = false
			case m.bounded:
				m.read = extentCache{rect: m.info.Extent, has: m.info.HasExtent}.reaches(qp, bound)
			default:
				// Skipped: a retry's wider bound may reach its cached extent.
				m.read = m.ext.reaches(qp, bound)
			}
			if m.read {
				reads = append(reads, i)
			}
		}
		// Gather phase: only the members the ball reaches.
		fan(reads, func(i int) { r.gather(ctx, &ms[i], i, q, bound) })

		mstart := time.Now()
		var items []Item
		versions := make([]uint64, len(ms))
		var vsum uint64
		for i := range ms {
			m := &ms[i]
			switch {
			case m.read:
				if m.gerr != nil {
					r.unavailable.Add(1)
					return nil, fmt.Errorf("shard %d: gather: %w: %v", i, ErrUnavailable, m.gerr)
				}
				if items == nil {
					items = m.items // the usual single member: no copy
				} else {
					items = append(items, m.items...)
				}
				versions[i] = m.gver
			case m.bounded && m.err == nil:
				versions[i] = m.info.Version
			default:
				versions[i] = m.ver
			}
			vsum += versions[i]
		}
		r.gatherContacts.Add(uint64(len(reads)))

		// The gathered set is the candidate set: index it by a scan, which
		// the engine evaluating the view filters through, instead of a tree.
		slices.SortFunc(items, func(a, b Item) int { return cmp.Compare(a.ID, b.ID) })
		pdfs := make([]pdf.PDF, len(items))
		ids := make([]uint64, len(items))
		for i, it := range items {
			pdfs[i] = it.PDF
			ids[i] = it.ID
		}
		ds := uncertain.NewDataset(pdfs)
		ix := filter.NewScan(ds)

		// Soundness check: the bound recomputed from what was actually
		// gathered must not exceed the bound that pruned. If it does, a
		// witness retired between the phases — retry wider.
		if !math.IsInf(bound, 1) {
			if regathered := kth(ix.FarBounds(q, k), k); regathered > bound {
				r.retries.Add(1)
				r.log.Debug("gather bound moved; retrying wider",
					"attempt", attempt, "trace_id", obs.TraceID(ctx))
				// After two retries, or with fewer than k items gathered (no
				// progress information), go wide.
				bound = regathered
				if attempt >= 2 {
					bound = math.Inf(1)
				}
				r.mergeNanos.Add(time.Since(mstart).Nanoseconds())
				continue
			}
		}

		g := &Gathered{
			View:      &store.View{Version: vsum, Dataset: ds, IDs: ids, Index: ix},
			Versions:  versions,
			Version:   vsum,
			Contacted: contacted,
			Fanout:    len(reads),
			Bound:     bound,
		}
		r.mergeNanos.Add(time.Since(mstart).Nanoseconds())
		r.obs.Fanout.Observe(float64(len(reads)))
		return g, nil
	}
}

// nearest picks the member a query bounds first: the one whose cached
// extent is nearest q (the lowest index on a tie) or, when no member holds a
// 1-D object, the member q routes to.
func (r *Router) nearest(ms []memberRead, q geom.Point) int {
	first, best := ShardFor(q.X, r.cuts), math.Inf(1)
	for i := range ms {
		if d := ms[i].ext.rect.MinDist(q); ms[i].ext.has && d < best {
			first, best = i, d
		}
	}
	return first
}

// bound makes member i's traced, timed bound hop. A reply only grows the
// cached extent: it may predate a write that already grew it.
func (r *Router) bound(ctx context.Context, m *memberRead, i int, q float64, k int) {
	mctx, sp := r.obs.Tracer.StartSpan(ctx, "shard", "member.bound")
	sp.SetAttr("shard", strconv.Itoa(i))
	start := time.Now()
	m.info, m.err = r.members[i].Bound(mctx, q, k)
	r.obs.MemberSeconds.With("bound", strconv.Itoa(i)).Observe(time.Since(start).Seconds())
	if m.err != nil {
		sp.SetAttr("error", m.err.Error())
	} else if m.info.HasExtent {
		r.growExtent(i, m.info.Extent)
	}
	sp.End()
}

// gather makes member i's traced, timed gather hop at the pruning bound.
func (r *Router) gather(ctx context.Context, m *memberRead, i int, q, bound float64) {
	mctx, sp := r.obs.Tracer.StartSpan(ctx, "shard", "member.gather")
	sp.SetAttr("shard", strconv.Itoa(i))
	start := time.Now()
	m.items, m.gver, m.gerr = r.members[i].Gather(mctx, q, bound)
	r.obs.MemberSeconds.With("gather", strconv.Itoa(i)).Observe(time.Since(start).Seconds())
	if m.gerr != nil {
		sp.SetAttr("error", m.gerr.Error())
	}
	sp.SetAttr("items", strconv.Itoa(len(m.items)))
	sp.End()
}

// fan makes hop(i) for every listed member: in-line for one, on parallel
// goroutines for more.
func fan(ids []int, hop func(i int)) {
	if len(ids) == 1 {
		hop(ids[0])
		return
	}
	var wg sync.WaitGroup
	for _, i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hop(i)
		}()
	}
	wg.Wait()
}

// kth is the k-th smallest of the ascending distances fars; +Inf when there
// are fewer than k.
func kth(fars []float64, k int) float64 {
	if len(fars) < k {
		return math.Inf(1)
	}
	return fars[k-1]
}

// growExtent unions rect into member i's cached extent.
func (r *Router) growExtent(i int, rect geom.Rect) {
	r.emu.Lock()
	if e := &r.extents[i]; e.has {
		e.rect = e.rect.Union(rect)
	} else {
		*e = extentCache{rect: rect, has: true}
	}
	r.emu.Unlock()
}

// Evaluate answers a standing-query spec against the cluster: scatter-gather
// the candidates, then run the standard single-engine evaluation over the
// merged mini-view. The body is byte-identical to monitor.Evaluate over a
// single store holding the same objects; the radius is the query's influence
// radius under the returned consistency cut.
func (r *Router) Evaluate(ctx context.Context, spec monitor.Spec) (body []byte, radius float64, g *Gathered, err error) {
	if err := spec.Validate(); err != nil {
		return nil, 0, nil, err
	}
	k := 1
	if spec.Kind == monitor.KindKNN {
		k = spec.K
	}
	g, err = r.Gather(ctx, spec.Q, k)
	if err != nil {
		return nil, 0, nil, err
	}
	eng, err := core.NewEngineWithIndex(g.View.Dataset, g.View.Index)
	if err != nil {
		return nil, 0, nil, err
	}
	body, radius, err = monitor.Evaluate(g.View, eng, nil, spec)
	if err != nil {
		return nil, 0, nil, err
	}
	return body, radius, g, nil
}

// clusterSource stands a monitor.Monitor on a local shard cluster: the
// member stores' change feeds drive the spatial join and dirty queries
// re-evaluate through the router's scatter-gather. A cluster evaluation is
// already a merged mini-dataset of just the candidates, so there is no
// per-query incremental state to maintain: the source is stateless and every
// answer is re-derived from scratch at whatever cut the gather pins.
type clusterSource struct {
	r      *Router
	stores []*store.Store
}

// NewMonitorSource returns the monitor source of a cluster served by r;
// stores[i] must be member i's store.
func NewMonitorSource(r *Router, stores []*store.Store) (monitor.Source, error) {
	if r == nil {
		return nil, fmt.Errorf("shard: monitor source needs a router")
	}
	if len(stores) != r.Shards() {
		return nil, fmt.Errorf("shard: monitor source got %d stores for %d shards", len(stores), r.Shards())
	}
	return &clusterSource{r: r, stores: stores}, nil
}

func (s *clusterSource) Stores() []*store.Store { return s.stores }
func (s *clusterSource) Incremental() bool      { return false }

func (s *clusterSource) Evaluate(ev monitor.Eval, cut []uint64) ([]byte, float64, core.IncrementalStats, error) {
	body, radius, g, err := s.r.Evaluate(context.Background(), ev.Spec)
	if err != nil {
		return nil, 0, core.IncrementalStats{}, err
	}
	copy(cut, g.Versions)
	return body, radius, core.IncrementalStats{}, nil
}

// Stats is a snapshot of the router's operational counters.
type Stats struct {
	// Shards is the member count; Objects the cluster-wide live 1-D count.
	Shards, Objects int
	// PerShard holds the live 1-D object count per shard (skew metric).
	PerShard []int
	// Queries counts scatter-gather passes; Retries the extra gather rounds
	// forced by bound movement; Unavailable the queries failed on a dead
	// shard.
	Queries, Retries, Unavailable uint64
	// BoundContacts and GatherContacts count per-member phase reads; the
	// mean gather fan-out fraction is GatherContacts / (Queries * Shards).
	BoundContacts, GatherContacts uint64
	// MergeNanos is total time spent merging bounds and candidates.
	MergeNanos int64
	// Versions is the current member version vector.
	Versions []uint64
}

// Stats snapshots the router's counters.
func (r *Router) Stats() Stats {
	r.wmu.Lock()
	perShard := append([]int(nil), r.perShard...)
	n := len(r.owner)
	r.wmu.Unlock()
	vers := make([]uint64, len(r.members))
	for i, m := range r.members {
		vers[i] = m.Version()
	}
	return Stats{
		Shards:         len(r.members),
		Objects:        n,
		PerShard:       perShard,
		Queries:        r.queries.Load(),
		Retries:        r.retries.Load(),
		Unavailable:    r.unavailable.Load(),
		BoundContacts:  r.boundContacts.Load(),
		GatherContacts: r.gatherContacts.Load(),
		MergeNanos:     r.mergeNanos.Load(),
		Versions:       vers,
	}
}
