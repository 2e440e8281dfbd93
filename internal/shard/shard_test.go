package shard

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/monitor"
	"repro/internal/pdf"
	"repro/internal/store"
	"repro/internal/uncertain"
	"repro/internal/verify"
)

// freshEval renders spec's canonical answer body over a single view, the
// control every routed answer is held to byte for byte.
func freshEval(view *store.View, spec monitor.Spec) ([]byte, float64, error) {
	eng, err := core.NewEngineWithIndex(view.Dataset, view.Index)
	if err != nil {
		return nil, 0, err
	}
	return monitor.Evaluate(view, eng, nil, spec)
}

func TestMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := Meta{Shards: 4, Cuts: []float64{1, 2.5, 100}, NextID: 17}
	if err := WriteMeta(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != 4 || got.NextID != 17 || len(got.Cuts) != 3 || got.Cuts[1] != 2.5 {
		t.Fatalf("round trip mangled meta: %+v", got)
	}
	for _, bad := range []Meta{
		{Shards: 0},
		{Shards: 2, Cuts: nil},
		{Shards: 3, Cuts: []float64{2, 1}},
		{Shards: 2, Cuts: []float64{math.Inf(1)}},
		{Shards: 2, Cuts: []float64{math.NaN()}},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("meta %+v validated", bad)
		}
	}
}

func TestShardForEdges(t *testing.T) {
	cuts := []float64{10, 20}
	for _, tc := range []struct {
		x    float64
		want int
	}{
		{5, 0}, {10, 0}, {10.0001, 1}, {20, 1}, {21, 2},
		{math.Inf(-1), 0}, {math.Inf(1), 2},
	} {
		if got := ShardFor(tc.x, cuts); got != tc.want {
			t.Fatalf("ShardFor(%g) = %d, want %d", tc.x, got, tc.want)
		}
	}
	if got := ShardFor(42, nil); got != 0 {
		t.Fatalf("single-shard routing returned %d", got)
	}
}

// TestSplitStoreReopen splits a populated single store into a cluster,
// reopens it from disk, and checks the router serves identical answers and
// continues the ID sequence.
func TestSplitStoreReopen(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src, err := store.Open(srcDir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var ops []store.Op
	for i := 0; i < 20; i++ {
		lo := float64(i * 10)
		ops = append(ops, store.InsertObject(pdf.MustUniform(lo, lo+5)))
	}
	if _, err := src.Apply(ops); err != nil {
		t.Fatal(err)
	}
	view := src.View()
	spec := monitor.Spec{Kind: monitor.KindCPNN, Q: 42,
		Constraint: verify.Constraint{P: 0.3, Delta: 0.01}}
	want, _, err := freshEval(view, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	meta, err := SplitStore(srcDir, dstDir, 4, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Shards != 4 || meta.NextID != view.NextID {
		t.Fatalf("split meta %+v, want 4 shards nextID %d", meta, view.NextID)
	}

	c, err := OpenCluster(dstDir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	total := 0
	for _, st := range c.Stores {
		total += st.View().Dataset.Len()
	}
	if total != 20 {
		t.Fatalf("cluster holds %d objects, want 20", total)
	}
	r, err := c.Router()
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := r.Evaluate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-split answer diverged:\n got %s\nwant %s", got, want)
	}
	// The ID sequence continues where the single store left off.
	res, err := r.Apply(context.Background(), []store.Op{store.InsertObject(pdf.MustUniform(0, 1))})
	if err != nil {
		t.Fatal(err)
	}
	if res.IDs[0] != view.NextID {
		t.Fatalf("first post-split insert got ID %d, want %d", res.IDs[0], view.NextID)
	}

	// A second split into the same directory must refuse.
	if _, err := SplitStore(srcDir, dstDir, 2, store.Options{}); err == nil {
		t.Fatal("re-split into an existing cluster dir succeeded")
	}
}

func TestRouterValidation(t *testing.T) {
	c, err := CreateCluster(t.TempDir(), 2, nil, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Router()
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Apply(context.Background(), []store.Op{
		store.InsertObject(pdf.MustUniform(0, 1)),
		store.InsertObject(pdf.MustUniform(1, 2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	oid := res.IDs[0]

	for name, tc := range map[string]struct {
		ops  []store.Op
		want error
	}{
		"unknown update": {[]store.Op{store.UpdateObject(99, pdf.MustUniform(0, 1))}, store.ErrUnknownID},
		"unknown delete": {[]store.Op{store.Delete(99)}, store.ErrUnknownID},
		"disk insert":    {[]store.Op{{Code: store.OpDisk}}, store.ErrInvalidOp},
		"disk update":    {[]store.Op{{Code: store.OpDisk, ID: oid}}, store.ErrInvalidOp},
		"update after truncate": {[]store.Op{store.Truncate(),
			store.UpdateObject(oid, pdf.MustUniform(0, 1))}, store.ErrUnknownID},
	} {
		if _, err := r.Apply(context.Background(), tc.ops); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", name, err, tc.want)
		}
	}
	// Failed batches must not have committed anything: the object is alive.
	if _, err := r.Apply(context.Background(), []store.Op{store.UpdateObject(oid, pdf.MustUniform(5, 6))}); err != nil {
		t.Fatal(err)
	}
	// In-batch visibility: delete then update the same ID fails.
	if _, err := r.Apply(context.Background(), []store.Op{store.Delete(oid),
		store.UpdateObject(oid, pdf.MustUniform(0, 1))}); !errors.Is(err, store.ErrUnknownID) {
		t.Fatalf("delete-then-update: %v", err)
	}
}

// flakyMember wraps a Member with switchable failure injection.
type flakyMember struct {
	Member
	mu   sync.Mutex
	down bool
}

func (f *flakyMember) fail() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down
}

func (f *flakyMember) setDown(d bool) {
	f.mu.Lock()
	f.down = d
	f.mu.Unlock()
}

func (f *flakyMember) Info() (MemberInfo, error) {
	if f.fail() {
		return MemberInfo{}, errors.New("injected: down")
	}
	return f.Member.Info()
}

func (f *flakyMember) Bound(ctx context.Context, q float64, k int) (BoundInfo, error) {
	if f.fail() {
		return BoundInfo{}, errors.New("injected: down")
	}
	return f.Member.Bound(ctx, q, k)
}

func (f *flakyMember) Gather(ctx context.Context, q, bound float64) ([]Item, uint64, error) {
	if f.fail() {
		return nil, 0, errors.New("injected: down")
	}
	return f.Member.Gather(ctx, q, bound)
}

func (f *flakyMember) Apply(ctx context.Context, payload []byte) (store.ApplyResult, error) {
	if f.fail() {
		return store.ApplyResult{}, errors.New("injected: down")
	}
	return f.Member.Apply(ctx, payload)
}

// TestRouterDeadShard checks partial availability: with one member down, a
// query whose candidate ball provably misses the dead shard's last-known
// extent keeps being served exactly; a query that needs it fails with
// ErrUnavailable; writes routed to it fail; and after the member returns,
// everything reconverges.
func TestRouterDeadShard(t *testing.T) {
	// Two shards with the cut between two well-separated clumps of objects.
	c, err := CreateClusterCuts(t.TempDir(), []float64{500}, nil, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r0, err := NewRouter(RouterConfig{Members: c.Members(), Cuts: c.Meta.Cuts, NextID: c.Meta.NextID})
	if err != nil {
		t.Fatal(err)
	}
	var ops []store.Op
	for i := 0; i < 8; i++ {
		lo := float64(i)
		ops = append(ops, store.InsertObject(pdf.MustUniform(lo, lo+0.5)))
		lo = 1000 + float64(i)
		ops = append(ops, store.InsertObject(pdf.MustUniform(lo, lo+0.5)))
	}
	if _, err := r0.Apply(context.Background(), ops); err != nil {
		t.Fatal(err)
	}

	// Rebuild the router over flaky wrappers (cuts were all zero at create
	// time; recreate with a real cut between the two clumps).
	members := c.Members()
	flaky := make([]*flakyMember, len(members))
	wrapped := make([]Member, len(members))
	for i, m := range members {
		flaky[i] = &flakyMember{Member: m}
		wrapped[i] = flaky[i]
	}
	r, err := NewRouter(RouterConfig{Members: wrapped, Cuts: c.Meta.Cuts, NextID: 0})
	if err != nil {
		t.Fatal(err)
	}

	// Both clumps landed on some shard; find the shard owning the far clump.
	farShard := ShardFor(1000, c.Meta.Cuts)
	nearSpec := monitor.Spec{Kind: monitor.KindPNN, Q: 4}
	farSpec := monitor.Spec{Kind: monitor.KindPNN, Q: 1004}
	wantNear, _, _, err := r.Evaluate(context.Background(), nearSpec)
	if err != nil {
		t.Fatal(err)
	}

	flaky[farShard].setDown(true)

	// The near query survives: the dead shard's cached extent misses its
	// candidate ball.
	if ShardFor(4, c.Meta.Cuts) != farShard {
		got, _, g, err := r.Evaluate(context.Background(), nearSpec)
		if err != nil {
			t.Fatalf("near query with dead far shard: %v", err)
		}
		if !bytes.Equal(got, wantNear) {
			t.Fatalf("near answer changed under partial availability:\n got %s\nwant %s", got, wantNear)
		}
		if g.Contacted >= len(wrapped) {
			t.Fatalf("dead shard counted as contacted")
		}
	}
	// The far query needs the dead shard and must say so.
	if _, _, _, err := r.Evaluate(context.Background(), farSpec); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("far query: got %v, want ErrUnavailable", err)
	}
	// A write routed to the dead shard fails unavailable.
	if _, err := r.Apply(context.Background(), []store.Op{store.InsertObject(pdf.MustUniform(1000, 1001))}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("write to dead shard: got %v, want ErrUnavailable", err)
	}

	flaky[farShard].setDown(false)
	want, _, err := freshEval(fullClusterView(t, c), farSpec)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := r.Evaluate(context.Background(), farSpec)
	if err != nil {
		t.Fatalf("far query after recovery: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-recovery answer diverged:\n got %s\nwant %s", got, want)
	}
	st := r.Stats()
	if st.Unavailable == 0 {
		t.Fatal("unavailability was not counted")
	}
}

// scanTestCluster splits a store of n random intervals over [0, 10000] into
// a 4-shard cluster; it returns the single store's view (the oracle) and the
// cluster's router.
func scanTestCluster(t *testing.T, seed int64, n int) (*store.View, *Router) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	single, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	ops := make([]store.Op, n)
	for i := range ops {
		lo := rng.Float64() * 10000
		ops[i] = store.InsertObject(pdf.MustUniform(lo, lo+1+rng.Float64()*20))
	}
	if _, err := single.Apply(ops); err != nil {
		t.Fatal(err)
	}
	c, err := CreateCluster(t.TempDir(), 4, single.View(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	r, err := c.Router()
	if err != nil {
		t.Fatal(err)
	}
	return single.View(), r
}

// TestGatheredViewIsScanIndex: the router's merged view carries a scan index
// over its own dataset — no R-tree is built per query — that answers as one
// would and refuses mutation with an error (TestScanRefusesMutation has the
// rest of the mutators).
func TestGatheredViewIsScanIndex(t *testing.T) {
	_, r := scanTestCluster(t, 3, 200)
	for _, q := range []float64{0, 2500, 5000, 9999} {
		g, err := r.Gather(context.Background(), q, 1)
		if err != nil {
			t.Fatal(err)
		}
		ds, ix := g.View.Dataset, g.View.Index
		if ix == nil || ix.Dataset() != ds || ds.Len() == 0 {
			t.Fatalf("q=%g: gathered view index %v over %d objects", q, ix, ds.Len())
		}
		if _, err := ix.Tree(); err == nil {
			t.Fatalf("q=%g: the gathered view carries an R-tree", q)
		}
		tree, err := filter.NewIndex(ds)
		if err != nil {
			t.Fatal(err)
		}
		got, want := ix.Candidates(q), tree.Candidates(q)
		if math.Float64bits(got.FMin) != math.Float64bits(want.FMin) || !slices.Equal(got.IDs, want.IDs) {
			t.Fatalf("q=%g: scan candidates %+v, R-tree %+v", q, got, want)
		}
		if err := ix.Insert(uncertain.Object{ID: ds.Len(), PDF: pdf.MustUniform(q, q+1)}); err == nil {
			t.Fatalf("q=%g: Insert on the gathered index succeeded", q)
		}
	}
}

// TestRouterEvaluateMatchesStore: Router.Evaluate renders the same bytes as
// a single store's evaluation of the spec, for every standing-query kind.
func TestRouterEvaluateMatchesStore(t *testing.T) {
	view, r := scanTestCluster(t, 4, 200)
	for _, spec := range oracleSpecs(rand.New(rand.NewSource(4)), 10000, 4) {
		want, _, err := freshEval(view, spec)
		if err != nil {
			t.Fatal(err)
		}
		got, _, _, err := r.Evaluate(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v q=%g: router %s, single store %s", spec.Kind, spec.Q, got, want)
		}
	}
}

// TestRouterContactsNearestMember: a routed query bounds the member whose
// cached extent is nearest it and skips every member whose extent misses the
// ball, so 500 random queries over a 4-shard split contact about one member
// each (every member, 4.0 a query, when all were bounded) — and every answer
// is byte-equal to the single store's.
func TestRouterContactsNearestMember(t *testing.T) {
	view, r := scanTestCluster(t, 6, 1000)
	rng := rand.New(rand.NewSource(6))
	specs := oracleSpecs(rng, 10000, 6)
	for i := 0; i < 500; i++ {
		spec := specs[i%len(specs)]
		spec.Q = rng.Float64() * 10000
		want, _, err := freshEval(view, spec)
		if err != nil {
			t.Fatal(err)
		}
		got, _, _, err := r.Evaluate(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v q=%g: router %s, single store %s", spec.Kind, spec.Q, got, want)
		}
	}
	st := r.Stats()
	if per := float64(st.BoundContacts) / float64(st.Queries); per > 1.1 {
		t.Fatalf("%d bound contacts over %d queries (%.3f a query), want at most 1.1", st.BoundContacts, st.Queries, per)
	}
	t.Logf("%d bound contacts, %d gather contacts over %d queries", st.BoundContacts, st.GatherContacts, st.Queries)
}

// TestRouterWriteGrowsExtent: a write grows its owner's cached extent before
// it commits. The inserted object lies far outside its owner's objects and
// right next to the other member's, so a query beside it bounds that other
// member first; only the grown extent makes the query reach the owner.
func TestRouterWriteGrowsExtent(t *testing.T) {
	c, err := CreateClusterCuts(t.TempDir(), []float64{600}, nil, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Router()
	if err != nil {
		t.Fatal(err)
	}
	var ops []store.Op
	for i := 0; i < 8; i++ {
		lo := float64(i * 12)
		ops = append(ops, store.InsertObject(pdf.MustUniform(lo, lo+2)))
		lo = 900 + float64(i*3)
		ops = append(ops, store.InsertObject(pdf.MustUniform(lo, lo+2)))
	}
	if _, err := r.Apply(context.Background(), ops); err != nil {
		t.Fatal(err)
	}
	// Centre 590 routes to shard 0, whose objects all sit in [0, 86].
	res, err := r.Apply(context.Background(), []store.Op{store.InsertObject(pdf.MustUniform(300, 880))})
	if err != nil {
		t.Fatal(err)
	}
	id := res.IDs[0]
	g, err := r.Gather(context.Background(), 870, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(g.View.IDs, id) {
		t.Fatalf("gather at 870 holds %v, not the new object %d (contacted %d, bound %g)", g.View.IDs, id, g.Contacted, g.Bound)
	}
	spec := monitor.Spec{Kind: monitor.KindPNN, Q: 870}
	want, _, err := freshEval(fullClusterView(t, c), spec)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := r.Evaluate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("answer beside the new object:\n got %s\nwant %s", got, want)
	}
}

// hookMember runs hook once, inside its first hop of one phase: after its
// first Bound reply is computed, or before its first Gather reads — a write
// landing mid-query at a chosen point.
type hookMember struct {
	Member
	gather bool // run in Gather, not Bound
	once   sync.Once
	hook   func()
}

func (h *hookMember) Bound(ctx context.Context, q float64, k int) (BoundInfo, error) {
	info, err := h.Member.Bound(ctx, q, k)
	if !h.gather {
		h.once.Do(h.hook)
	}
	return info, err
}

func (h *hookMember) Gather(ctx context.Context, q, bound float64) ([]Item, uint64, error) {
	if h.gather {
		h.once.Do(h.hook)
	}
	return h.Member.Gather(ctx, q, bound)
}

// hookedRouter splits the given regions at cut 50 into a 2-shard cluster and
// routes over it with shard 0 wrapped in h; it returns the router, the
// cluster and the regions' stable IDs.
func hookedRouter(t *testing.T, h *hookMember, regions [][2]float64) (*Router, *Cluster, []uint64) {
	t.Helper()
	c, err := CreateClusterCuts(t.TempDir(), []float64{50}, nil, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	members := c.Members()
	h.Member = members[0]
	members[0] = h
	r, err := NewRouter(RouterConfig{Members: members, Cuts: c.Meta.Cuts, NextID: c.Meta.NextID})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]store.Op, len(regions))
	for i, iv := range regions {
		ops[i] = store.InsertObject(pdf.MustUniform(iv[0], iv[1]))
	}
	res, err := r.Apply(context.Background(), ops)
	if err != nil {
		t.Fatal(err)
	}
	return r, c, res.IDs
}

// checkRouted compares a routed PNN at q with a single-engine evaluation of
// every member's full contents.
func checkRouted(t *testing.T, r *Router, c *Cluster, q float64) {
	t.Helper()
	spec := monitor.Spec{Kind: monitor.KindPNN, Q: q}
	want, _, err := freshEval(fullClusterView(t, c), spec)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := r.Evaluate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("q=%g:\n got %s\nwant %s", q, got, want)
	}
}

// TestRouterRetryRechecksSkippedMember: at q = 0, shard 0's witness [1, 3]
// caps the bound at 3, so shard 1, whose only object [8, 100] starts at 8,
// is skipped. The witness is deleted between the bound and the gather phase;
// the gathered f_min becomes [2, 20]'s 20, and the retry at that wider bound
// must gather the skipped shard, whose object is now a candidate.
func TestRouterRetryRechecksSkippedMember(t *testing.T) {
	h := &hookMember{gather: true}
	r, c, ids := hookedRouter(t, h, [][2]float64{{1, 3}, {2, 20}, {8, 100}})
	h.hook = func() {
		if _, err := r.Apply(context.Background(), []store.Op{store.Delete(ids[0])}); err != nil {
			t.Error(err)
		}
	}
	g, err := r.Gather(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(g.View.IDs, ids[2]) || g.Contacted != 1 || r.Stats().Retries == 0 {
		t.Fatalf("gathered %v (contacted %d, retries %d), want [8, 100]'s ID %d through a retry",
			g.View.IDs, g.Contacted, r.Stats().Retries, ids[2])
	}
	checkRouted(t, r, c, 0)
}

// TestRouterBoundReplyOnlyGrowsExtent: a Bound reply computed before a write
// landed must not erase the extent growth the write made. Shard 0 answers a
// bound at q = 10 holding only [0, 20]; before the reply reaches the router,
// a write puts [-760, 860] (centre 50) on shard 0. A later query at 870 must
// still reach shard 0, though shard 1's [900, 902] is the nearest member.
func TestRouterBoundReplyOnlyGrowsExtent(t *testing.T) {
	h := &hookMember{}
	r, c, _ := hookedRouter(t, h, [][2]float64{{0, 20}, {900, 902}})
	h.hook = func() {
		if _, err := r.Apply(context.Background(), []store.Op{store.InsertObject(pdf.MustUniform(-760, 860))}); err != nil {
			t.Error(err)
		}
	}
	if _, err := r.Gather(context.Background(), 10, 1); err != nil {
		t.Fatal(err)
	}
	checkRouted(t, r, c, 870)
}

// TestSplitDropsDisks splits a store directory an older build wrote with 2-D
// disks among its 1-D objects (internal/store's testdata/disks_v2): the
// cluster holds the 1-D objects only, and the ID sequence continues past the
// last disk's ID.
func TestSplitDropsDisks(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	for _, name := range []string{"checkpoint.db", "wal.log"} {
		b, err := os.ReadFile(filepath.Join("..", "store", "testdata", "disks_v2", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(srcDir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := SplitStore(srcDir, dstDir, 3, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if meta.NextID != 70 {
		t.Fatalf("split NextID %d, want 70 (past disk 69)", meta.NextID)
	}
	c, err := OpenCluster(dstDir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Router()
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Objects(); n != 60 {
		t.Fatalf("cluster holds %d objects, want the 60 1-D ones", n)
	}
	res, err := r.Apply(context.Background(), []store.Op{store.InsertObject(pdf.MustUniform(0, 1))})
	if err != nil {
		t.Fatal(err)
	}
	if res.IDs[0] != 70 {
		t.Fatalf("first post-split insert got ID %d, want 70", res.IDs[0])
	}
}
