// Package filter implements the first phase of the C-PNN pipeline (paper
// Fig. 3): pruning objects that cannot possibly be the nearest neighbor of
// the query point.
//
// The rule comes from Cheng et al. (TKDE'04), reference [8] of the paper: let
// f_min be the minimum over all objects of the far-point distance from q.
// Any object whose near point exceeds f_min has zero qualification
// probability, because the object attaining f_min is certainly closer. The
// survivors form the candidate set handed to the verifiers.
package filter

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/uncertain"
)

// Index answers candidate-set queries over the uncertainty regions of a
// dataset: through an R-tree (NewIndex), or, for a small set a filter has
// already run on, by scanning it (NewScan, scan.go).
type Index struct {
	tree *rtree.Tree[int] // nil for a scan index
	ds   *uncertain.Dataset
}

// NewIndex bulk-loads the dataset's uncertainty regions into an R-tree.
// Only regions are read, never pdf payloads, so indexing a disk-backed
// dataset does not fault it in.
func NewIndex(ds *uncertain.Dataset) (*Index, error) {
	inputs := make([]rtree.Input[int], ds.Len())
	for i := range inputs {
		inputs[i] = rtree.Input[int]{Rect: geom.RectFromInterval(ds.Region(i)), Item: i}
	}
	tree, err := rtree.BulkLoad(inputs, rtree.DefaultMinEntries, rtree.DefaultMaxEntries)
	if err != nil {
		return nil, fmt.Errorf("filter: building index: %w", err)
	}
	return &Index{tree: tree, ds: ds}, nil
}

// Dataset returns the indexed dataset.
func (ix *Index) Dataset() *uncertain.Dataset { return ix.ds }

// Result is the outcome of the filtering phase.
type Result struct {
	// IDs are the candidate object IDs: objects whose qualification
	// probability may be non-zero.
	IDs []int
	// FMin is the minimum far-point distance over all objects — the pruning
	// bound.
	FMin float64
}

// Hit is one object a filter kept: its dataset ID and its uncertainty
// region, read where the filter tested it — the R-tree leaf entry, or the
// region a scan read — so the caller need not load the object again to
// learn it. The region equals the dataset's Region(ID) exactly.
type Hit struct {
	ID     int
	Region geom.Interval
}

// Candidates returns the candidate set for query point q.
func (ix *Index) Candidates(q float64) Result {
	hits, fMin := ix.AppendCandidates(nil, q)
	return Result{IDs: hitIDs(hits), FMin: fMin}
}

// AppendCandidates appends the candidate set for query point q to dst — a
// query's scratch buffer, so a warm query allocates none — as hits in
// ascending ID order, and returns it with the pruning bound f_min.
func (ix *Index) AppendCandidates(dst []Hit, q float64) ([]Hit, float64) {
	if ix.tree == nil {
		return ix.scanCandidates(dst, q)
	}
	if ix.tree.Len() == 0 {
		return dst, 0
	}
	fMin := ix.tree.MinMaxDist(geom.Point{X: q, Y: 0})
	return ix.AppendWithin(dst, q, fMin), fMin
}

// Within returns the IDs of every indexed region whose near point lies
// within bound of q — exactly the regions with MinDist(q) <= bound —
// ascending. With bound = f_min this is the candidate set, with f_k the k-NN
// filter's.
func (ix *Index) Within(q, bound float64) []int { return hitIDs(ix.AppendWithin(nil, q, bound)) }

// AppendWithin is Within with the regions appended to dst as hits; the
// prefix dst already holds is kept as it is.
func (ix *Index) AppendWithin(dst []Hit, q, bound float64) []Hit {
	if ix.tree == nil {
		return ix.scanWithin(dst, q, bound)
	}
	// The window only narrows the search; MinDist(q) <= bound is the
	// predicate. [q-bound, q+bound] is not a superset of it: its edges are
	// rounded, and a region past a rounded edge can still have a near-point
	// distance that rounds to bound. One ulp more radius is: a region starting
	// beyond q+w is, by monotone rounding, more than w > bound away.
	w := math.Nextafter(bound, math.Inf(1))
	window := geom.Rect{MinX: q - w, MinY: 0, MaxX: q + w, MaxY: 0}
	n := len(dst)
	ix.tree.Search(window, func(r geom.Rect, id int) bool {
		if iv := r.Interval(); iv.MinDist(q) <= bound {
			dst = append(dst, Hit{ID: id, Region: iv})
		}
		return true
	})
	// Canonical ascending order: tree traversal order depends on insertion
	// history. The order is part of the contract, not a convenience: a
	// shard's gather concatenates members' lists, and core's sources promise
	// their candidates ID-ascending (answer assembly ranks rows by ID itself
	// and needs no input order).
	sortHits(dst[n:])
	return dst
}

// hitIDs returns the IDs of hits, in order.
func hitIDs(hits []Hit) []int {
	ids := make([]int, len(hits))
	for i, h := range hits {
		ids[i] = h.ID
	}
	return ids
}

// sortHits sorts hits by ascending ID: a quicksort with the comparison
// inline, as sort.Ints has it for ints, and about as fast on candidate-sized
// inputs. slices.SortFunc calls its comparator once a comparison, which took
// two to five times as long. Median-of-three pivots; a partition too deep
// for random input hands its part to slices.SortFunc, which bounds the
// worst case.
func sortHits(h []Hit) {
	for depth := 2 * bits.Len(uint(len(h))); len(h) > 12; depth-- {
		if depth == 0 {
			slices.SortFunc(h, func(a, b Hit) int { return cmp.Compare(a.ID, b.ID) })
			return
		}
		p := partitionHits(h)
		// Recurse into the smaller side, loop on the larger: O(log n) stack.
		if p < len(h)-p {
			sortHits(h[:p])
			h = h[p+1:]
		} else {
			sortHits(h[p+1:])
			h = h[:p]
		}
	}
	for i := 1; i < len(h); i++ {
		x, j := h[i], i
		for ; j > 0 && x.ID < h[j-1].ID; j-- {
			h[j] = h[j-1]
		}
		h[j] = x
	}
}

// partitionHits partitions h (len > 2) around the median of its first,
// middle and last IDs and returns the pivot's final index: every hit before
// it has a smaller or equal ID, every hit after a larger or equal one.
func partitionHits(h []Hit) int {
	n, m := len(h), len(h)/2
	if h[m].ID < h[0].ID {
		h[0], h[m] = h[m], h[0]
	}
	if h[n-1].ID < h[0].ID {
		h[0], h[n-1] = h[n-1], h[0]
	}
	if h[n-1].ID < h[m].ID {
		h[m], h[n-1] = h[n-1], h[m]
	}
	h[0], h[m] = h[m], h[0]
	p := h[0].ID
	i, j := 1, n-1
	for {
		for i <= j && h[i].ID < p {
			i++
		}
		for i <= j && h[j].ID > p {
			j--
		}
		if i >= j {
			break
		}
		h[i], h[j] = h[j], h[i]
		i, j = i+1, j-1
	}
	h[0], h[j] = h[j], h[0]
	return j
}

// FarBounds returns the k smallest far-point distances from q, ascending
// (fewer when the index holds fewer than k objects; nil when it is empty or
// k < 1), by one best-first descent of the R-tree (rtree.Tree.MinMaxDists) —
// O(log n) node visits for small k, never a scan of the dataset (a scan
// index, built only over a router's gathered candidates, makes one pass).
// The last value is the k-NN critical distance f_k; k = 1 yields the C-PNN
// filtering bound f_min. Scatter-gather merges per-shard FarBounds lists to
// recover the global bound exactly: each of the k global witnesses is one of
// some shard's k smallest, so the k smallest of the merged lists equal the k
// smallest of the whole dataset, and the router's soundness check reads f_k
// back off the scan index over what it gathered.
func (ix *Index) FarBounds(q float64, k int) []float64 {
	// k arrives unbounded off the wire; clamp before anything is sized by it.
	k = min(k, ix.Len())
	if k < 1 {
		return nil
	}
	if ix.tree == nil {
		return ix.scanFarBounds(q, k)
	}
	return ix.tree.MinMaxDists(geom.Point{X: q, Y: 0}, make([]float64, k))
}

// Insert adds an object to an existing index. The object must already carry
// its dataset ID; it is the caller's responsibility to keep the dataset and
// index in sync. A scan index refuses it.
func (ix *Index) Insert(o uncertain.Object) error {
	if ix.tree == nil {
		return errScan
	}
	return ix.tree.Insert(geom.RectFromInterval(o.Region()), o.ID)
}

// Delete removes the entry for an object, reporting whether it was present.
// The object's region must match the region it was inserted with. A scan
// index refuses it.
func (ix *Index) Delete(o uncertain.Object) (bool, error) {
	if ix.tree == nil {
		return false, errScan
	}
	rect := geom.RectFromInterval(o.Region())
	return ix.tree.Delete(rect, func(id int) bool { return id == o.ID }), nil
}

// Len returns the number of indexed objects.
func (ix *Index) Len() int {
	if ix.tree == nil {
		return ix.ds.Len()
	}
	return ix.tree.Len()
}

// Bounds returns the bounding rectangle of every indexed region and whether
// the index is non-empty. A shard's router prunes the scatter phase with it:
// a shard whose extent misses the candidate ball cannot hold a candidate.
func (ix *Index) Bounds() (geom.Rect, bool) {
	if ix.tree == nil {
		return ix.scanBounds()
	}
	return ix.tree.Bounds()
}

// Edit is one incremental index mutation in terms of dense dataset IDs:
// the (rect, id) entry to insert or delete. The store emits edit streams as
// it commits object batches; Apply replays them onto a copy of the index.
type Edit struct {
	// Delete selects removal; otherwise the edit inserts.
	Delete bool
	// Rect is the entry's bounding rectangle (the object's region).
	Rect geom.Rect
	// ID is the dense dataset ID of the entry.
	ID int
}

// InsertEdit builds the edit that indexes an object's region under a dense ID.
func InsertEdit(region geom.Interval, id int) Edit {
	return Edit{Rect: geom.RectFromInterval(region), ID: id}
}

// DeleteEdit builds the edit that removes an object's entry.
func DeleteEdit(region geom.Interval, id int) Edit {
	return Edit{Delete: true, Rect: geom.RectFromInterval(region), ID: id}
}

// rebuildFraction is the edit-entry-to-size ratio beyond which Apply
// abandons incremental maintenance and bulk-reloads. Note the unit: edit
// entries, not ops — an update emits two edits (delete + insert) and a
// slot-displacing delete three, so the flip happens near 12% update churn
// (≈25% of the dataset measured in tree operations). Past that, STR packing
// is both faster and yields a tighter tree than a long train of splits (see
// BenchmarkIndexMaintenance).
const rebuildFraction = 0.25

// Apply produces the index of the next dataset generation: it clones the
// current tree in O(1) (readers of this index are never disturbed — MVCC by
// copy-on-write) and replays the edits onto the clone, each update as one
// move (see applyEdits). When the edit stream
// is large relative to the dataset it falls back to a bulk STR rebuild, the
// amortization strategy for wholesale reloads. The returned index is bound
// to ds; ix may be nil to force a bulk build. A scan index refuses it.
func (ix *Index) Apply(ds *uncertain.Dataset, edits []Edit) (*Index, error) {
	if ix != nil && ix.tree == nil {
		return nil, errScan
	}
	if ix == nil || float64(len(edits)) >= rebuildFraction*float64(ds.Len())+1 {
		return NewIndex(ds)
	}
	return applyEdits(ix.tree.Clone(), ds, edits)
}

// applyEdits replays edits onto tree. A DeleteEdit directly followed by an
// InsertEdit of the same ID — the pair the store emits for an update — is
// one rtree.Tree.Move, which keeps a small move inside its leaf (the
// lazy-update R-tree's rule) instead of deleting and reinserting the entry.
func applyEdits(tree *rtree.Tree[int], ds *uncertain.Dataset, edits []Edit) (*Index, error) {
	for i := 0; i < len(edits); i++ {
		e := edits[i]
		match := func(id int) bool { return id == e.ID }
		var (
			found = true
			err   error
		)
		switch {
		case e.Delete && i+1 < len(edits) && !edits[i+1].Delete && edits[i+1].ID == e.ID:
			i++
			found, err = tree.Move(e.Rect, edits[i].Rect, match)
		case e.Delete:
			found = tree.Delete(e.Rect, match)
		default:
			err = tree.Insert(e.Rect, e.ID)
		}
		if err != nil {
			return nil, fmt.Errorf("filter: apply: %w", err)
		}
		if !found {
			return nil, fmt.Errorf("filter: apply: no entry id=%d rect=%+v", e.ID, e.Rect)
		}
	}
	if tree.Len() != ds.Len() {
		return nil, fmt.Errorf("filter: apply: index holds %d entries, dataset %d objects",
			tree.Len(), ds.Len())
	}
	return &Index{tree: tree, ds: ds}, nil
}
