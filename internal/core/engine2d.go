package core

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/filter"
	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/rtree"
)

// Object2D is an uncertain object in the plane: a disk-shaped uncertainty
// region with a uniform pdf, the 2-D model of Cheng et al. (TKDE'04) that
// the paper's §IV-A extension note reduces to distance pdfs.
type Object2D struct {
	// ID identifies the object.
	ID int
	// Region is the uncertainty disk.
	Region geom.Circle
}

// Engine2D answers C-PNN queries over planar uncertain objects. Every entry
// point (CPNN, PNN) is the embedded pipeline's; the engine adds
// only its source: distance pdfs derived from lens areas instead of
// interval folds. The lens reduction depends on the query point, so there
// is nothing query-independent to memoize (the discretization memo serves
// the 1-D engine's analytic pdfs).
type Engine2D struct {
	pipeline[geom.Point]
	source2D
}

// source2D is the pipeline's view of a planar dataset: positions index objs,
// the filter walks an R-tree over the disks' bounding boxes, and distance
// pdfs come from the circle–circle lens reduction.
type source2D struct {
	objs []Object2D
	tree *rtree.Tree[int]
}

// NewEngine2D indexes the objects' bounding boxes and returns a 2-D engine.
// Object IDs must be unique; centres must be finite and radii finite and
// positive — the same conditions the store puts on a disk before logging it.
func NewEngine2D(objs []Object2D) (*Engine2D, error) {
	inputs := make([]rtree.Input[int], len(objs))
	seen := make(map[int]bool, len(objs))
	for i, o := range objs {
		if !(o.Region.Radius > 0) || math.IsInf(o.Region.Radius, 0) {
			return nil, fmt.Errorf("core: object %d has radius %g, want finite and positive", o.ID, o.Region.Radius)
		}
		// A centre is held to the rule for query points: finite coordinates.
		if c := o.Region.Center; checkQuery(c.X) != nil || checkQuery(c.Y) != nil {
			return nil, fmt.Errorf("core: object %d has non-finite centre %+v", o.ID, c)
		}
		if seen[o.ID] {
			return nil, fmt.Errorf("core: duplicate object ID %d", o.ID)
		}
		seen[o.ID] = true
		inputs[i] = rtree.Input[int]{Rect: geom.RectFromCircle(o.Region), Item: i}
	}
	tree, err := rtree.BulkLoad(inputs, rtree.DefaultMinEntries, rtree.DefaultMaxEntries)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e := &Engine2D{source2D: source2D{objs: append([]Object2D(nil), objs...), tree: tree}}
	e.pipeline = pipeline[geom.Point]{src: &e.source2D}
	return e, nil
}

// Len returns the number of indexed objects.
func (e *Engine2D) Len() int { return len(e.objs) }

func (s *source2D) check(q geom.Point) error {
	if err := checkQuery(q.X); err != nil {
		return err
	}
	return checkQuery(q.Y)
}

// candidates computes the 2-D candidate set: hits naming, by index into
// objs, the objects whose near point is within f_min, appended to buf in
// R-tree order, plus f_min itself. A hit's region is left zero: a disk is
// no interval, and dist reads it from objs. The R-tree bound uses bounding
// boxes (a valid upper bound on the minimal circle far point); candidate
// circles then tighten f_min exactly before the near-point prune, which
// compacts the rough window hits in place. The order is not by ID: the Basic baseline
// multiplies its survival factors in candidate order, and that order is
// what its recorded answers were computed in. The 2-D engine answers C-PNN
// and PNN only, so it filters at k = 1; a deeper filter waits for a 2-D
// k-NN caller.
func (s *source2D) candidates(q geom.Point, k int, buf []filter.Hit) ([]filter.Hit, float64) {
	if k != 1 {
		panic(fmt.Sprintf("core: 2-D filter at k = %d; only k = 1 is supported", k))
	}
	if len(s.objs) == 0 {
		return buf, 0
	}
	fBox := s.tree.MinMaxDist(q)
	window := geom.Rect{MinX: q.X - fBox, MinY: q.Y - fBox, MaxX: q.X + fBox, MaxY: q.Y + fBox}
	n := len(buf)
	s.tree.Search(window, func(_ geom.Rect, idx int) bool {
		buf = append(buf, filter.Hit{ID: idx})
		return true
	})
	rough := buf[n:]
	fMin := math.Inf(1)
	for _, h := range rough {
		if f := s.objs[h.ID].Region.MaxDist(q); f < fMin {
			fMin = f
		}
	}
	cands := rough[:0]
	for _, h := range rough {
		if s.objs[h.ID].Region.MinDist(q) <= fMin {
			cands = append(cands, h)
		}
	}
	return buf[:n+len(cands)], fMin
}

func (s *source2D) id(h filter.Hit) int { return s.objs[h.ID].ID }

func (s *source2D) dist(h filter.Hit, q geom.Point, bins int, a *pdf.Alloc) (*pdf.Histogram, error) {
	return dist.FromCircleIn(a, s.objs[h.ID].Region, q, bins)
}
