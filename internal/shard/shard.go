// Package shard scales the C-PNN serving layer past one process's dataset
// and write throughput by partitioning the domain into K spatial shards and
// answering queries by scatter-gather.
//
// The partitioner reuses the R-tree's Sort-Tile-Recursive packing pass
// (rtree.PartitionSTR) to cut the domain into K contiguous slices of
// near-equal population; each shard is an ordinary durable store (its own
// WAL, checkpoints, MVCC views) opened with store.Options.ExplicitIDs so the
// router owns stable-ID assignment cluster-wide.
//
// Queries are exact, not approximate, by the paper's own filtering argument:
// a C-PNN answer depends only on the candidate set — the objects within the
// candidate ball of radius f_min (f_k for k-NN) around the query point — so
// the router first asks the shard whose extent is nearest the query for its
// k smallest far-point distances (filter.Index.FarBounds — one best-first
// descent of the member's R-tree, O(log n) for small k). Any shard's k-th
// far distance bounds the global one from above, so only shards whose cached
// extent reaches it are asked too; the router merges the replies into the
// global bound, gathers the candidate objects only from shards whose extent
// intersects the ball, and runs the standard single-engine pipeline over the
// merged mini-dataset. A shard no phase reads enters the answer's
// consistency cut at its version read before its cached extent.
// The gathered objects already are the candidate set, so the mini-view is
// indexed by a scan (filter.NewScan: one pass over its ≈80 regions, answers
// bit-identical to an R-tree's) rather than a tree bulk-loaded per query.
// Every global bound witness is some shard's local witness, so the merged
// bound, candidate set, and therefore the verifier output are identical to a
// single-engine evaluation over the union — byte-for-byte under the
// monitor's canonical answer encoding (see TestShardedEquivalence).
//
// Members can live in-process (Local over *store.Store) or behind HTTP
// (HTTPMember speaking the /internal/shard/* wire protocol, which ships op
// batches in the store's WAL payload encoding — the same bytes a local
// commit would log). Writes must flow through a single router: it owns the
// ID counter, the stable-ID→shard owner map and the cached extents that let
// a query skip shards. Remote members enforce it with the router's claim
// (ClaimHeader).
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/store"
)

// ErrUnavailable marks a shard member that cannot be reached (or answered
// with an error) while it was needed: a write routed to it, or a query whose
// candidate ball its extent may intersect. Servers map it to 503 +
// Retry-After; queries provably outside the dead shard's extent keep being
// served.
var ErrUnavailable = errors.New("shard: member unavailable")

// ErrSuperseded marks a member that refused a request because another
// router has claimed it since this one booted (see ClaimHeader). The router
// reports it as ErrUnavailable, whatever the member's extent: its cached
// extents no longer see every write.
var ErrSuperseded = errors.New("shard: member claimed by another router")

// MetaFile is the cluster metadata file name, written next to the shard
// directories.
const MetaFile = "shard.json"

// Meta is the durable cluster layout.
type Meta struct {
	// Shards is the member count K.
	Shards int `json:"shards"`
	// Cuts are the K-1 routing boundaries on the X axis, ascending: shard i
	// owns centers c with cuts[i-1] < c <= cuts[i] (outer cuts read as ±Inf).
	Cuts []float64 `json:"cuts"`
	// NextID is the cluster-wide ID counter at split time; the router boots
	// with the max of this and every member's durable counter.
	NextID uint64 `json:"next_id"`
}

// Validate rejects malformed metadata before any store is touched.
func (m Meta) Validate() error {
	if m.Shards < 1 {
		return fmt.Errorf("shard: %d shards < 1", m.Shards)
	}
	if len(m.Cuts) != m.Shards-1 {
		return fmt.Errorf("shard: %d cuts for %d shards (want %d)", len(m.Cuts), m.Shards, m.Shards-1)
	}
	for i, c := range m.Cuts {
		if c != c || c > maxFinite || c < -maxFinite {
			return fmt.Errorf("shard: cut[%d] = %g is not finite", i, c)
		}
		if i > 0 && c < m.Cuts[i-1] {
			return fmt.Errorf("shard: cuts out of order at %d (%g < %g)", i, c, m.Cuts[i-1])
		}
	}
	return nil
}

const maxFinite = 1.7976931348623157e308

// ShardFor routes a center coordinate through the cuts: the smallest i with
// x <= cuts[i], else the last shard. This is the single routing function —
// the partitioner, the router's insert path and the fuzz harness all agree
// by construction.
func ShardFor(x float64, cuts []float64) int {
	return sort.SearchFloat64s(cuts, x)
}

// Dir returns member i's store directory under the cluster directory.
func Dir(clusterDir string, i int) string {
	return filepath.Join(clusterDir, fmt.Sprintf("shard-%04d", i))
}

// WriteMeta persists the cluster layout (atomically via rename).
func WriteMeta(clusterDir string, m Meta) error {
	if err := m.Validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(clusterDir, MetaFile+".tmp")
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(clusterDir, MetaFile))
}

// ReadMeta loads and validates the cluster layout.
func ReadMeta(clusterDir string) (Meta, error) {
	b, err := os.ReadFile(filepath.Join(clusterDir, MetaFile))
	if err != nil {
		return Meta{}, err
	}
	var m Meta
	if err := json.Unmarshal(b, &m); err != nil {
		return Meta{}, fmt.Errorf("shard: parsing %s: %w", MetaFile, err)
	}
	if err := m.Validate(); err != nil {
		return Meta{}, err
	}
	return m, nil
}

// memberOptions is how every member store must be opened: the router owns ID
// assignment, so members accept explicit unknown IDs.
func memberOptions(opt store.Options) store.Options {
	opt.ExplicitIDs = true
	return opt
}

// Cluster is a set of locally-open member stores plus the routing metadata.
type Cluster struct {
	Dir    string
	Meta   Meta
	Stores []*store.Store
}

// CreateCluster partitions a view's objects into k shards under dir (which
// must not already hold a cluster) and bulk-loads one member store per
// shard, preserving every stable ID. Cuts come from the R-tree's STR packing
// pass, so shards hold near-equal populations. A nil view creates an empty
// cluster with all-zero cuts — the first Reload through a router
// re-balances it.
func CreateCluster(dir string, k int, view *store.View, opt store.Options) (*Cluster, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: %d shards < 1", k)
	}
	cuts := make([]float64, k-1)
	if view != nil {
		rects, _ := viewObjects(view)
		_, cuts = rtree.PartitionSTR(rects, k)
	}
	return CreateClusterCuts(dir, cuts, view, opt)
}

// CreateClusterCuts is CreateCluster with caller-chosen routing cuts —
// deliberately skewed layouts are valid (routing is exact for any sorted
// cuts), just unbalanced.
func CreateClusterCuts(dir string, cuts []float64, view *store.View, opt store.Options) (*Cluster, error) {
	k := len(cuts) + 1
	if _, err := os.Stat(filepath.Join(dir, MetaFile)); err == nil {
		return nil, fmt.Errorf("shard: %s already holds a cluster", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	meta := Meta{Shards: k, Cuts: cuts, NextID: 1}
	perShard := make([][]store.Op, k)
	if view != nil {
		meta.NextID = view.NextID
		rects, ops := viewObjects(view)
		for i, r := range rects {
			g := ShardFor(r.Center().X, cuts)
			perShard[g] = append(perShard[g], ops[i])
		}
	}
	if err := WriteMeta(dir, meta); err != nil {
		return nil, err
	}
	c := &Cluster{Dir: dir, Meta: meta}
	for i := 0; i < k; i++ {
		st, err := store.Open(Dir(dir, i), memberOptions(opt))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Stores = append(c.Stores, st)
		if len(perShard[i]) > 0 {
			if _, err := st.Apply(perShard[i]); err != nil {
				c.Close()
				return nil, err
			}
		}
	}
	return c, nil
}

// viewObjects flattens a view into parallel (routing rect, explicit-ID
// upsert) slices.
func viewObjects(view *store.View) ([]geom.Rect, []store.Op) {
	var rects []geom.Rect
	var ops []store.Op
	for slot, o := range view.Dataset.Objects() {
		rects = append(rects, geom.RectFromInterval(o.Region()))
		ops = append(ops, store.UpdateObject(view.IDs[slot], o.PDF))
	}
	return rects, ops
}

// OpenCluster opens every member store of an existing cluster.
func OpenCluster(dir string, opt store.Options) (*Cluster, error) {
	meta, err := ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Dir: dir, Meta: meta}
	for i := 0; i < meta.Shards; i++ {
		st, err := store.Open(Dir(dir, i), memberOptions(opt))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Stores = append(c.Stores, st)
	}
	return c, nil
}

// SplitStore partitions an existing single store's contents into a k-shard
// cluster under dstDir. The source store must not be open elsewhere (it is
// opened briefly to snapshot its view) and is left untouched.
func SplitStore(srcDir, dstDir string, k int, opt store.Options) (Meta, error) {
	src, err := store.Open(srcDir, store.Options{})
	if err != nil {
		return Meta{}, err
	}
	view := src.View()
	if err := src.Close(); err != nil {
		return Meta{}, err
	}
	c, err := CreateCluster(dstDir, k, view, opt)
	if err != nil {
		return Meta{}, err
	}
	meta := c.Meta
	return meta, c.Close()
}

// Members wraps every member store as a Local router member.
func (c *Cluster) Members() []Member {
	ms := make([]Member, len(c.Stores))
	for i, st := range c.Stores {
		ms[i] = NewLocal(st)
	}
	return ms
}

// Router builds a scatter-gather router over the cluster's members. An
// in-process cluster has one router, its only writer: build one per Cluster
// and route every write through it. Local members cannot tell routers apart
// the way HTTP members do by their claim.
func (c *Cluster) Router() (*Router, error) {
	return c.RouterObs(Obs{})
}

// RouterObs is Router with observability sinks wired in.
func (c *Cluster) RouterObs(ob Obs) (*Router, error) {
	return NewRouter(RouterConfig{Members: c.Members(), Cuts: c.Meta.Cuts, NextID: c.Meta.NextID, Obs: ob})
}

// Close closes every member store, returning the first error.
func (c *Cluster) Close() error {
	var first error
	for _, st := range c.Stores {
		if err := st.Close(); err != nil && first == nil && !errors.Is(err, store.ErrClosed) {
			first = err
		}
	}
	return first
}
