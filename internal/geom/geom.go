// Package geom provides the small amount of computational geometry needed by
// the C-PNN engine: one-dimensional intervals, two-dimensional points,
// rectangles and circles, and the min/max distance metrics used by the
// R-tree filtering phase.
package geom

import (
	"fmt"
	"math"
)

// Interval is a closed one-dimensional interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// NewInterval returns the interval [lo, hi]. It panics if hi < lo or either
// bound is NaN, since such intervals indicate a programming error upstream.
func NewInterval(lo, hi float64) Interval {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		panic("geom: NaN interval bound")
	}
	if hi < lo {
		panic(fmt.Sprintf("geom: inverted interval [%g, %g]", lo, hi))
	}
	return Interval{Lo: lo, Hi: hi}
}

// Length returns Hi - Lo.
func (iv Interval) Length() float64 { return iv.Hi - iv.Lo }

// Center returns the midpoint of the interval.
func (iv Interval) Center() float64 { return iv.Lo + (iv.Hi-iv.Lo)/2 }

// Contains reports whether x lies in [Lo, Hi].
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Intersects reports whether the two closed intervals share at least a point.
func (iv Interval) Intersects(other Interval) bool {
	return iv.Lo <= other.Hi && other.Lo <= iv.Hi
}

// Union returns the smallest interval covering both inputs.
func (iv Interval) Union(other Interval) Interval {
	return Interval{Lo: math.Min(iv.Lo, other.Lo), Hi: math.Max(iv.Hi, other.Hi)}
}

// MinDist returns the smallest possible |x - q| for x in the interval. It is
// the "near point" distance of the uncertainty region from q.
func (iv Interval) MinDist(q float64) float64 {
	switch {
	case q < iv.Lo:
		return iv.Lo - q
	case q > iv.Hi:
		return q - iv.Hi
	default:
		return 0
	}
}

// MaxDist returns the largest possible |x - q| for x in the interval. It is
// the "far point" distance of the uncertainty region from q.
func (iv Interval) MaxDist(q float64) float64 {
	return math.Max(math.Abs(q-iv.Lo), math.Abs(q-iv.Hi))
}

// String implements fmt.Stringer.
func (iv Interval) String() string { return fmt.Sprintf("[%g, %g]", iv.Lo, iv.Hi) }

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(other Point) float64 {
	return math.Hypot(p.X-other.X, p.Y-other.Y)
}

// Rect is an axis-aligned rectangle in the plane. One-dimensional intervals
// are embedded as rectangles with MinY == MaxY == 0 so the same R-tree serves
// both dimensionalities. The JSON names are the shard member wire's.
type Rect struct {
	MinX float64 `json:"minx"`
	MinY float64 `json:"miny"`
	MaxX float64 `json:"maxx"`
	MaxY float64 `json:"maxy"`
}

// RectFromInterval embeds a 1-D interval on the x-axis.
func RectFromInterval(iv Interval) Rect {
	return Rect{MinX: iv.Lo, MinY: 0, MaxX: iv.Hi, MaxY: 0}
}

// RectFromCircle returns the bounding box of a circle.
func RectFromCircle(c Circle) Rect {
	return Rect{
		MinX: c.Center.X - c.Radius, MinY: c.Center.Y - c.Radius,
		MaxX: c.Center.X + c.Radius, MaxY: c.Center.Y + c.Radius,
	}
}

// Interval extracts the x-extent of the rectangle.
func (r Rect) Interval() Interval { return Interval{Lo: r.MinX, Hi: r.MaxX} }

// IsValid reports whether the rectangle is non-inverted and NaN-free.
func (r Rect) IsValid() bool {
	return !math.IsNaN(r.MinX) && !math.IsNaN(r.MinY) &&
		!math.IsNaN(r.MaxX) && !math.IsNaN(r.MaxY) &&
		r.MinX <= r.MaxX && r.MinY <= r.MaxY
}

// Area returns the rectangle's area. Degenerate rectangles have zero area.
func (r Rect) Area() float64 { return (r.MaxX - r.MinX) * (r.MaxY - r.MinY) }

// Union returns the smallest rectangle containing both inputs.
func (r Rect) Union(other Rect) Rect {
	return Rect{
		MinX: math.Min(r.MinX, other.MinX),
		MinY: math.Min(r.MinY, other.MinY),
		MaxX: math.Max(r.MaxX, other.MaxX),
		MaxY: math.Max(r.MaxY, other.MaxY),
	}
}

// Intersects reports whether the rectangles overlap (closed boundaries).
func (r Rect) Intersects(other Rect) bool {
	return r.MinX <= other.MaxX && other.MinX <= r.MaxX &&
		r.MinY <= other.MaxY && other.MinY <= r.MaxY
}

// Contains reports whether other lies entirely within r.
func (r Rect) Contains(other Rect) bool {
	return other.MinX >= r.MinX && other.MaxX <= r.MaxX &&
		other.MinY >= r.MinY && other.MaxY <= r.MaxY
}

// Center returns the rectangle's centroid.
func (r Rect) Center() Point {
	return Point{X: r.MinX + (r.MaxX-r.MinX)/2, Y: r.MinY + (r.MaxY-r.MinY)/2}
}

// MinDist returns the minimum Euclidean distance from q to any point of the
// rectangle (zero if q is inside). This is the classical MINDIST metric of
// Roussopoulos et al. used for best-first nearest-neighbor search.
func (r Rect) MinDist(q Point) float64 {
	dx := axisDist(q.X, r.MinX, r.MaxX)
	dy := axisDist(q.Y, r.MinY, r.MaxY)
	return hypot(dx, dy)
}

// MaxDist returns the maximum Euclidean distance from q to any point of the
// rectangle, attained at the corner farthest from q.
func (r Rect) MaxDist(q Point) float64 {
	dx := math.Max(math.Abs(q.X-r.MinX), math.Abs(q.X-r.MaxX))
	dy := math.Max(math.Abs(q.Y-r.MinY), math.Abs(q.Y-r.MaxY))
	return hypot(dx, dy)
}

// MinMaxDist returns the MINMAXDIST metric of Roussopoulos et al.: the
// smallest upper bound on the distance from q to the nearest object contained
// in the rectangle, assuming every face of the rectangle touches an object.
// The filtering phase uses it to tighten f_min during tree descent.
func (r Rect) MinMaxDist(q Point) float64 {
	// For each axis k, take the nearer edge on axis k and the farther edge
	// on every other axis; the answer is the minimum over k.
	rmX := nearerEdge(q.X, r.MinX, r.MaxX)
	rmY := nearerEdge(q.Y, r.MinY, r.MaxY)
	rMX := fartherEdge(q.X, r.MinX, r.MaxX)
	rMY := fartherEdge(q.Y, r.MinY, r.MaxY)

	dX := hypot(q.X-rmX, q.Y-rMY)
	dY := hypot(q.X-rMX, q.Y-rmY)
	return math.Min(dX, dY)
}

// hypot is math.Hypot(x, y) with the y-term-zero case answered directly:
// every 1-D rectangle (MinY == MaxY == 0) queried on the x-axis lands there.
// Hypot(x, ±0) is |x| bit for bit — max·√(1+0) — for every x, ±0, ±Inf and
// subnormals included (TestHypotZeroYMatchesMath).
func hypot(x, y float64) float64 {
	if y == 0 {
		return math.Abs(x)
	}
	return math.Hypot(x, y)
}

func axisDist(q, lo, hi float64) float64 {
	switch {
	case q < lo:
		return lo - q
	case q > hi:
		return q - hi
	default:
		return 0
	}
}

func nearerEdge(q, lo, hi float64) float64 {
	if q <= lo+(hi-lo)/2 {
		return lo
	}
	return hi
}

func fartherEdge(q, lo, hi float64) float64 {
	if q >= lo+(hi-lo)/2 {
		return lo
	}
	return hi
}

// Circle is a disk-shaped uncertainty region in the plane.
type Circle struct {
	Center Point
	Radius float64
}

// MinDist returns the smallest distance from q to a point of the disk.
func (c Circle) MinDist(q Point) float64 {
	return math.Max(0, c.Center.Dist(q)-c.Radius)
}

// MaxDist returns the largest distance from q to a point of the disk.
func (c Circle) MaxDist(q Point) float64 {
	return c.Center.Dist(q) + c.Radius
}

// Contains reports whether q lies inside the closed disk.
func (c Circle) Contains(q Point) bool {
	return c.Center.Dist(q) <= c.Radius
}

// Area returns the disk's area.
func (c Circle) Area() float64 { return math.Pi * c.Radius * c.Radius }

// LensArea returns the area of the intersection of two disks. It is used to
// derive distance cdfs for circular uncertainty regions: the probability that
// a uniformly-distributed object inside c lies within distance r of q is
// LensArea(c, Circle{q, r}) / c.Area().
func LensArea(a, b Circle) float64 {
	d := a.Center.Dist(b.Center)
	if d >= a.Radius+b.Radius {
		return 0
	}
	small, big := a.Radius, b.Radius
	if small > big {
		small, big = big, small
	}
	if d <= big-small {
		// The smaller disk is entirely inside the larger one.
		return math.Pi * small * small
	}
	r1, r2 := a.Radius, b.Radius
	// Standard circle-circle intersection ("lens") area.
	d1 := (d*d - r2*r2 + r1*r1) / (2 * d)
	d2 := d - d1
	seg := func(r, x float64) float64 {
		// Area of the circular segment of radius r cut at distance x from
		// the center. Clamp acos argument against round-off.
		t := x / r
		if t > 1 {
			t = 1
		} else if t < -1 {
			t = -1
		}
		return r*r*math.Acos(t) - x*math.Sqrt(math.Max(0, r*r-x*x))
	}
	return seg(r1, d1) + seg(r2, d2)
}
