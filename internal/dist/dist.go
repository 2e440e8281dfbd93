// Package dist derives distance distributions — the reduction at the heart
// of the C-PNN pipeline (paper §IV-A). Every uncertain object, whatever the
// shape of its uncertainty region, is collapsed to the pdf of its *distance*
// from the query point before subregion decomposition and verification; from
// that point on the verifiers and refiners only ever see one-dimensional
// distance histograms.
//
// Three reductions cover the paper's models:
//
//   - FromPDF folds a one-dimensional attribute pdf p(x) into the pdf of
//     |X − q|. For pdf.Uniform the fold is exact (the distance pdf of a
//     uniform is itself piecewise constant); histograms fold bin-exactly via
//     FoldHistogram; other analytic pdfs are discretized to DefaultBins bars
//     first, as the paper does for its Gaussian workload.
//   - FoldHistogram folds an existing histogram support around q, merging
//     the two arms x < q and x > q without any resampling loss: the result's
//     bin edges are the folded images of the source edges, so every result
//     bin maps to at most one source bin per arm and masses transfer
//     exactly.
//   - FromCircle reduces a disk-shaped planar uncertainty region with a
//     uniform pdf (the TKDE'04 model of the paper's §IV-A extension note) to
//     a distance histogram via lens areas: Pr(dist ≤ r) is the area of the
//     disk within radius r of q over the disk's area.
//
// All three return *pdf.Histogram — the canonical representation consumed by
// internal/subregion, internal/verify and internal/refine.
package dist

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/pdf"
)

// DefaultBins is the histogram resolution used when an analytic pdf must be
// discretized before folding. The paper approximates Gaussian uncertainty
// with 300-bar histograms (§V.5).
const DefaultBins = 300

// ErrNilPDF is returned when a nil pdf or histogram is folded.
var ErrNilPDF = errors.New("dist: nil pdf")

// FromPDF returns the pdf of |X − q| for X distributed according to p. The
// reduction is exact for pdf.Uniform and *pdf.Histogram inputs; any other
// pdf is discretized to DefaultBins bars first (use pdf.Discretize plus
// FoldHistogram directly to control the resolution).
func FromPDF(p pdf.PDF, q float64) (*pdf.Histogram, error) {
	return FromPDFIn(nil, p, q)
}

// FromPDFIn is FromPDF with the result (and fold temporaries) drawn from the
// arena; a nil arena falls back to the heap. The batch query path resets one
// arena per query instead of allocating ~|C| histograms each time.
func FromPDFIn(a *pdf.Alloc, p pdf.PDF, q float64) (*pdf.Histogram, error) {
	if p == nil {
		return nil, ErrNilPDF
	}
	if !isFinite(q) {
		return nil, fmt.Errorf("dist: non-finite query point %g", q)
	}
	switch v := p.(type) {
	case pdf.Uniform:
		return fromUniform(a, v.Support(), q)
	case *pdf.Histogram:
		return FoldHistogramIn(a, v, q)
	default:
		h, err := pdf.Discretize(p, DefaultBins)
		if err != nil {
			return nil, fmt.Errorf("dist: discretizing pdf: %w", err)
		}
		return FoldHistogramIn(a, h, q)
	}
}

// FromUniformIn is the distance pdf of an attribute uniform over iv, drawn
// from the arena (nil means the heap): bit for bit what FromPDFIn returns for
// a pdf.Uniform with support iv, for a caller that holds the region but not
// the pdf — the 1-D engine folds a uniform candidate straight from its index
// leaf. iv must be a valid uniform support, Lo < Hi.
func FromUniformIn(a *pdf.Alloc, iv geom.Interval, q float64) (*pdf.Histogram, error) {
	if !isFinite(q) {
		return nil, fmt.Errorf("dist: non-finite query point %g", q)
	}
	return fromUniform(a, iv, q)
}

// fromUniform is the closed-form distance pdf of an attribute uniform over
// iv. With support [lo, hi] of length L and q inside it, the distance
// density is 2/L on [0, a] (both arms contribute) and 1/L on (a, b], where a
// and b are the nearer and farther region endpoints' distances; with q
// outside, the distance is simply uniform over [near, far].
func fromUniform(al *pdf.Alloc, iv geom.Interval, q float64) (*pdf.Histogram, error) {
	if q <= iv.Lo || q >= iv.Hi {
		near, far := iv.MinDist(q), iv.MaxDist(q)
		return al.NewHistogram([]float64{near, far}, []float64{1})
	}
	a := math.Min(q-iv.Lo, iv.Hi-q)
	b := math.Max(q-iv.Lo, iv.Hi-q)
	if a == b {
		// q is the exact center: one doubled-density bin covers everything.
		return al.NewHistogram([]float64{0, a}, []float64{1})
	}
	return al.NewHistogram([]float64{0, a, b}, []float64{2 * a, b - a})
}

// FoldHistogram returns the pdf of |X − q| for X distributed according to
// the histogram h. The fold is bin-exact: the output's edges are the sorted,
// deduplicated distances of the input's edges (plus zero when q lies inside
// the support), so between two consecutive output edges neither arm of the
// fold crosses an input bin boundary and each output bin receives exactly
// the source mass of its two preimage intervals.
func FoldHistogram(h *pdf.Histogram, q float64) (*pdf.Histogram, error) {
	return FoldHistogramIn(nil, h, q)
}

// FoldHistogramIn is FoldHistogram allocating through the arena; see
// FromPDFIn.
func FoldHistogramIn(a *pdf.Alloc, h *pdf.Histogram, q float64) (*pdf.Histogram, error) {
	if h == nil {
		return nil, ErrNilPDF
	}
	if !isFinite(q) {
		return nil, fmt.Errorf("dist: non-finite query point %g", q)
	}
	src := h.Edges()
	pts := a.Floats(len(src) + 1)[:0]
	if h.Support().Contains(q) {
		pts = append(pts, 0)
	}
	for _, e := range src {
		pts = append(pts, math.Abs(e-q))
	}
	sort.Float64s(pts)
	edges := pts[:1]
	for _, v := range pts[1:] {
		if v > edges[len(edges)-1] {
			edges = append(edges, v)
		}
	}
	if len(edges) < 2 {
		return nil, fmt.Errorf("dist: histogram folds to a point at q=%g", q)
	}
	weights := a.Floats(len(edges) - 1)
	for i := range weights {
		d0, d1 := edges[i], edges[i+1]
		// Right arm [q+d0, q+d1] plus mirrored left arm [q−d1, q−d0]; the
		// cdf clamps outside the support, so arms that miss it add zero.
		m := (h.CDF(q+d1) - h.CDF(q+d0)) + (h.CDF(q-d0) - h.CDF(q-d1))
		if m < 0 {
			m = 0 // rounding guard; each arm's mass is non-negative analytically
		}
		weights[i] = m
	}
	out, err := a.NewHistogram(edges, weights)
	if err != nil {
		return nil, fmt.Errorf("dist: folding histogram at q=%g: %w", q, err)
	}
	return out, nil
}

// FromCircle reduces a disk-shaped uncertainty region with a uniform pdf to
// the distance histogram of its distance from the planar query point q — the
// paper's §IV-A disk-to-distance reduction. The distance cdf is the lens
// area of the disk and the radius-r circle around q over the disk's area,
// sampled at bins+1 evenly spaced radii between the near and far points.
func FromCircle(c geom.Circle, q geom.Point, bins int) (*pdf.Histogram, error) {
	return FromCircleIn(nil, c, q, bins)
}

// FromCircleIn is FromCircle allocating through the arena; see FromPDFIn.
func FromCircleIn(a *pdf.Alloc, c geom.Circle, q geom.Point, bins int) (*pdf.Histogram, error) {
	if !(c.Radius > 0) {
		return nil, fmt.Errorf("dist: non-positive circle radius %g", c.Radius)
	}
	if !isFinite(q.X) || !isFinite(q.Y) || !isFinite(c.Center.X) || !isFinite(c.Center.Y) {
		return nil, fmt.Errorf("dist: non-finite circle reduction geometry (center %v, q %v)", c.Center, q)
	}
	if bins < 1 {
		return nil, fmt.Errorf("dist: cannot reduce circle into %d bins", bins)
	}
	near, far := c.MinDist(q), c.MaxDist(q)
	area := c.Area()
	cdf := func(r float64) float64 {
		switch {
		case r <= near:
			return 0
		case r >= far:
			return 1
		default:
			return geom.LensArea(c, geom.Circle{Center: q, Radius: r}) / area
		}
	}
	edges := a.Floats(bins + 1)
	weights := a.Floats(bins)
	step := (far - near) / float64(bins)
	edges[0] = near
	prev := 0.0
	for i := 1; i <= bins; i++ {
		edges[i] = near + float64(i)*step
		cur := cdf(edges[i])
		w := cur - prev
		if w < 0 {
			w = 0 // lens-area round-off guard; the cdf is monotone analytically
		}
		weights[i-1] = w
		prev = cur
	}
	edges[bins] = far // avoid accumulated rounding on the last edge
	out, err := a.NewHistogram(edges, weights)
	if err != nil {
		return nil, fmt.Errorf("dist: reducing circle at q=%v: %w", q, err)
	}
	return out, nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
