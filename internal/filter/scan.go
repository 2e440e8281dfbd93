package filter

import (
	"errors"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

// errScan is what the mutators answer a scan index with.
var errScan = errors.New("filter: a scan index has no R-tree to mutate")

// NewScan returns the tree-less form of Index over ds. Candidates, Within
// and FarBounds each make one pass over the regions with the R-tree's own
// predicates — geom.Rect.MaxDist for far points, as MinMaxDists compares at
// a leaf, and Interval.MinDist(q) <= bound — visiting IDs in ascending
// order, so every result is bit-identical to NewIndex(ds)'s. It is for
// small sets a filter has already run on: a shard router's gathered
// candidates are the candidate set, and bulk-loading a tree over them only
// to filter them again cost more than the scan. A scan index is read-only:
// Insert, Delete, Apply and Tree refuse it with an error.
func NewScan(ds *uncertain.Dataset) *Index { return &Index{ds: ds} }

// scanFar is region i's far-point distance from q, computed as the R-tree
// computes it for the leaf entry of that region.
func (ix *Index) scanFar(i int, q geom.Point) float64 {
	return geom.RectFromInterval(ix.ds.Region(i)).MaxDist(q)
}

func (ix *Index) scanCandidates(dst []Hit, q float64) ([]Hit, float64) {
	n := ix.ds.Len()
	if n == 0 {
		return dst, 0
	}
	qp := geom.Point{X: q, Y: 0}
	fMin := math.Inf(1)
	for i := 0; i < n; i++ {
		if d := ix.scanFar(i, qp); d < fMin {
			fMin = d
		}
	}
	return ix.scanWithin(dst, q, fMin), fMin
}

func (ix *Index) scanWithin(dst []Hit, q, bound float64) []Hit {
	n0 := len(dst)
	for i, n := 0, ix.ds.Len(); i < n; i++ {
		if iv := ix.ds.Region(i); iv.MinDist(q) <= bound {
			if len(dst) == n0 {
				// A filtered set is mostly candidates: size for the rest of it.
				dst = slices.Grow(dst, n-i)
			}
			dst = append(dst, Hit{ID: i, Region: iv})
		}
	}
	return dst
}

// scanFarBounds keeps the k (1 <= k <= Len) smallest far-point distances in
// a max-heap, as rtree.Tree.MinMaxDists does at its leaves, and returns them
// ascending.
func (ix *Index) scanFarBounds(q float64, k int) []float64 {
	qp := geom.Point{X: q, Y: 0}
	h := make([]float64, 0, k)
	for i, n := 0, ix.ds.Len(); i < n; i++ {
		d := ix.scanFar(i, qp)
		if len(h) < k {
			if h = append(h, d); len(h) == k {
				for j := k/2 - 1; j >= 0; j-- {
					siftDown(h, j)
				}
			}
		} else if d < h[0] {
			h[0] = d
			siftDown(h, 0)
		}
	}
	slices.Sort(h)
	return h
}

func (ix *Index) scanBounds() (geom.Rect, bool) {
	n := ix.ds.Len()
	if n == 0 {
		return geom.Rect{}, false
	}
	b := geom.RectFromInterval(ix.ds.Region(0))
	for i := 1; i < n; i++ {
		b = b.Union(geom.RectFromInterval(ix.ds.Region(i)))
	}
	return b, true
}

// siftDown restores the max-heap order of h below index i.
func siftDown(h []float64, i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r] > h[m] {
			m = r
		}
		if h[i] >= h[m] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
