package shard

import (
	"cmp"
	"context"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/store"
)

// BoundInfo is one shard's reply to the scatter (bound) phase of a query:
// everything the router needs to compute the global filter bound and decide
// whether this shard can hold a candidate. Its JSON form is the member
// wire's /internal/shard/bound reply.
type BoundInfo struct {
	// Extent is the bounding rectangle of the shard's live 1-D regions;
	// valid only when HasExtent (an empty shard has none).
	Extent    geom.Rect `json:"extent"`
	HasExtent bool      `json:"has_extent"`
	// Fars holds the shard's min(k, n) smallest far-point distances from the
	// query point, ascending (filter.Index.FarBounds, an R-tree walk: the
	// reply costs O(log n) for small k and never more than k clamped to n).
	Fars []float64 `json:"fars"`
	// Version is the shard's store version the reply was computed at.
	Version uint64 `json:"version"`
}

// Item is one gathered candidate object in stable-ID terms.
type Item struct {
	ID  uint64
	PDF pdf.PDF
}

// MemberInfo is a shard's full identity snapshot, used to boot the router's
// owner map and ID counter. Its JSON form is the member wire's
// /internal/shard/info reply.
type MemberInfo struct {
	// IDs1D lists the shard's live stable IDs. (A member of an older build
	// also sends the IDs of its 2-D disks under another key; the router has
	// nothing to route to them and ignores it.)
	IDs1D []uint64 `json:"ids_1d"`
	// NextID is the shard's durable ID counter.
	NextID uint64 `json:"next_id"`
	// Version is the shard's store version.
	Version uint64 `json:"version"`
	// Extent/HasExtent mirror BoundInfo.
	Extent    geom.Rect `json:"extent"`
	HasExtent bool      `json:"has_extent"`
}

// Member is one shard as seen by the router. Implementations: Local wraps an
// in-process store; HTTPMember speaks to a member server. All methods are
// safe for concurrent use.
type Member interface {
	// Info snapshots the shard's identity (owner-map boot and recovery).
	Info() (MemberInfo, error)
	// Bound answers the scatter phase for query point q with filter depth k.
	// The context carries cancellation and the active trace span; remote
	// members forward it on the wire (obs.TraceHeader).
	Bound(ctx context.Context, q float64, k int) (BoundInfo, error)
	// Gather returns every 1-D object whose near point lies within bound of
	// q (all of them when bound is +Inf), plus the version it read.
	Gather(ctx context.Context, q, bound float64) ([]Item, uint64, error)
	// Apply commits an op batch encoded with store.EncodeOps — the raw WAL
	// payload bytes, shipped verbatim so a remote apply is bit-identical to
	// a local one.
	Apply(ctx context.Context, payload []byte) (store.ApplyResult, error)
	// Version is the member's latest known store version (exact for Local,
	// last-observed for HTTPMember). Used for cache keys, never correctness.
	Version() uint64
	// Close releases the member. Local members do NOT close their store
	// (the Cluster owns it); HTTP members release their connections.
	Close() error
}

// Local is the in-process Member over a shard's own store.
type Local struct {
	st *store.Store
}

// NewLocal wraps an open member store. The store must have been opened with
// ExplicitIDs (CreateCluster/OpenCluster do).
func NewLocal(st *store.Store) *Local { return &Local{st: st} }

// Store exposes the wrapped store (the shard monitor subscribes to its
// change feed).
func (l *Local) Store() *store.Store { return l.st }

// Info implements Member.
func (l *Local) Info() (MemberInfo, error) {
	v := l.st.View()
	info := MemberInfo{
		IDs1D:   append([]uint64(nil), v.IDs...),
		NextID:  v.NextID,
		Version: v.Version,
	}
	info.Extent, info.HasExtent = v.Index.Bounds()
	return info, nil
}

// Bound implements Member.
func (l *Local) Bound(_ context.Context, q float64, k int) (BoundInfo, error) {
	v := l.st.View()
	info := BoundInfo{Version: v.Version, Fars: v.Index.FarBounds(q, k)}
	info.Extent, info.HasExtent = v.Index.Bounds()
	return info, nil
}

// Gather implements Member.
func (l *Local) Gather(_ context.Context, q, bound float64) ([]Item, uint64, error) {
	v := l.st.View()
	items := gatherView(v, q, bound)
	return items, v.Version, nil
}

// gatherView collects the view's 1-D objects with near point within bound of
// q, in stable-ID order.
func gatherView(v *store.View, q, bound float64) []Item {
	var items []Item
	if math.IsInf(bound, 1) {
		for slot, o := range v.Dataset.Objects() {
			items = append(items, Item{ID: v.IDs[slot], PDF: o.PDF})
		}
	} else {
		hits := v.Index.AppendWithin(nil, q, bound)
		items = make([]Item, len(hits))
		for i, h := range hits {
			items[i] = Item{ID: v.IDs[h.ID], PDF: v.Dataset.Object(h.ID).PDF}
		}
	}
	slices.SortFunc(items, func(a, b Item) int { return cmp.Compare(a.ID, b.ID) })
	return items
}

// Apply implements Member: decode + commit, the same bytes recovery would
// replay.
func (l *Local) Apply(_ context.Context, payload []byte) (store.ApplyResult, error) {
	ops, err := store.DecodeOps(payload)
	if err != nil {
		return store.ApplyResult{}, err
	}
	return l.st.Apply(ops)
}

// Version implements Member.
func (l *Local) Version() uint64 { return l.st.View().Version }

// Close implements Member; the Cluster owns the store, so this is a no-op.
func (l *Local) Close() error { return nil }
