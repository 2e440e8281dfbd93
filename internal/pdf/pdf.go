// Package pdf models the probability density functions that describe
// attribute uncertainty in the C-PNN engine: uniform, truncated Gaussian and
// arbitrary piecewise-constant (histogram) densities over a closed interval.
//
// The paper assumes each uncertain object carries a pdf whose integral over
// its uncertainty region is one. All densities in this package maintain that
// invariant, and every pdf can be discretized to a Histogram — the canonical
// representation the verifiers operate on (the paper approximates Gaussians
// with 300-bar histograms).
package pdf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/geom"
)

// PDF is a probability density function over a closed interval. The integral
// of Density over Support is one; CDF is its running integral with
// CDF(Support().Lo) == 0 and CDF(Support().Hi) == 1.
type PDF interface {
	// Density returns the probability density at x. It is zero outside the
	// support interval.
	Density(x float64) float64
	// CDF returns P(X <= x). It is 0 left of the support and 1 right of it.
	CDF(x float64) float64
	// Support returns the closed interval outside which the density is zero.
	Support() geom.Interval
	// Mean returns the expected value of the distribution.
	Mean() float64
	// Sample draws a value from the distribution using rng.
	Sample(rng *rand.Rand) float64
}

// Uniform is the uniform density over an interval — the model used for the
// Long Beach intervals in the paper's experiments.
type Uniform struct {
	iv geom.Interval
}

// NewUniform returns the uniform pdf over [lo, hi]. It returns an error when
// the interval is degenerate or inverted, since a density cannot be defined
// on a zero-length support.
func NewUniform(lo, hi float64) (Uniform, error) {
	if math.IsNaN(lo) || math.IsNaN(hi) || hi <= lo {
		return Uniform{}, fmt.Errorf("pdf: invalid uniform support [%g, %g]", lo, hi)
	}
	return Uniform{iv: geom.Interval{Lo: lo, Hi: hi}}, nil
}

// MustUniform is NewUniform that panics on error, for tests and literals.
func MustUniform(lo, hi float64) Uniform {
	u, err := NewUniform(lo, hi)
	if err != nil {
		panic(err)
	}
	return u
}

// Density implements PDF.
func (u Uniform) Density(x float64) float64 {
	if !u.iv.Contains(x) {
		return 0
	}
	return 1 / u.iv.Length()
}

// CDF implements PDF.
func (u Uniform) CDF(x float64) float64 {
	switch {
	case x <= u.iv.Lo:
		return 0
	case x >= u.iv.Hi:
		return 1
	default:
		return (x - u.iv.Lo) / u.iv.Length()
	}
}

// Support implements PDF.
func (u Uniform) Support() geom.Interval { return u.iv }

// Mean implements PDF.
func (u Uniform) Mean() float64 { return u.iv.Center() }

// Sample implements PDF.
func (u Uniform) Sample(rng *rand.Rand) float64 {
	return u.iv.Lo + rng.Float64()*u.iv.Length()
}

// TruncGaussian is a Gaussian density truncated (and renormalized) to a
// closed interval. The paper's Gaussian experiment centers the mean on the
// uncertainty region and uses a standard deviation of 1/6 of its width.
type TruncGaussian struct {
	iv        geom.Interval
	mu, sigma float64
	norm      float64 // mass of the untruncated Gaussian inside iv
	cdfAtLo   float64
}

// NewTruncGaussian returns a Gaussian with the given mean and standard
// deviation truncated to [lo, hi].
func NewTruncGaussian(lo, hi, mu, sigma float64) (TruncGaussian, error) {
	if math.IsNaN(lo) || math.IsNaN(hi) || hi <= lo {
		return TruncGaussian{}, fmt.Errorf("pdf: invalid gaussian support [%g, %g]", lo, hi)
	}
	if !(sigma > 0) {
		return TruncGaussian{}, fmt.Errorf("pdf: non-positive sigma %g", sigma)
	}
	g := TruncGaussian{iv: geom.Interval{Lo: lo, Hi: hi}, mu: mu, sigma: sigma}
	g.cdfAtLo = stdNormCDF((lo - mu) / sigma)
	g.norm = stdNormCDF((hi-mu)/sigma) - g.cdfAtLo
	if g.norm <= 0 {
		return TruncGaussian{}, fmt.Errorf(
			"pdf: gaussian(mu=%g, sigma=%g) has no mass in [%g, %g]", mu, sigma, lo, hi)
	}
	return g, nil
}

// PaperGaussian returns the truncated Gaussian the paper uses in §V.5: mean
// at the center of the region and sigma equal to 1/6 of its width.
func PaperGaussian(lo, hi float64) (TruncGaussian, error) {
	return NewTruncGaussian(lo, hi, lo+(hi-lo)/2, (hi-lo)/6)
}

// Density implements PDF.
func (g TruncGaussian) Density(x float64) float64 {
	if !g.iv.Contains(x) {
		return 0
	}
	z := (x - g.mu) / g.sigma
	return math.Exp(-z*z/2) / (g.sigma * math.Sqrt(2*math.Pi) * g.norm)
}

// CDF implements PDF.
func (g TruncGaussian) CDF(x float64) float64 {
	switch {
	case x <= g.iv.Lo:
		return 0
	case x >= g.iv.Hi:
		return 1
	default:
		return (stdNormCDF((x-g.mu)/g.sigma) - g.cdfAtLo) / g.norm
	}
}

// Support implements PDF.
func (g TruncGaussian) Support() geom.Interval { return g.iv }

// Mean implements PDF.
func (g TruncGaussian) Mean() float64 {
	// mu + sigma * (phi(alpha) - phi(beta)) / Z for truncation [alpha, beta].
	alpha := (g.iv.Lo - g.mu) / g.sigma
	beta := (g.iv.Hi - g.mu) / g.sigma
	return g.mu + g.sigma*(stdNormPDF(alpha)-stdNormPDF(beta))/g.norm
}

// Sample implements PDF. It uses inverse-cdf bisection, which is exact up to
// floating-point resolution and avoids rejection-loop pathologies for narrow
// truncations.
func (g TruncGaussian) Sample(rng *rand.Rand) float64 {
	return inverseCDF(g, rng.Float64())
}

func stdNormPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

func stdNormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// Histogram is a piecewise-constant density: Edges has len(Bins)+1 entries in
// strictly increasing order and Bins[i] is the constant density on
// [Edges[i], Edges[i+1]). It is the canonical pdf representation of the
// engine; distance pdfs are always histograms.
type Histogram struct {
	edges []float64
	dens  []float64 // density per bin
	cum   []float64 // cumulative probability at each edge; cum[0]=0, cum[n]=1
}

// ErrEmptyHistogram is returned when a histogram would carry no probability
// mass.
var ErrEmptyHistogram = errors.New("pdf: histogram has no probability mass")

// NewHistogram builds a histogram pdf from bin edges and non-negative bin
// weights. Weights are proportional masses per bin (not densities); they are
// normalized so the total mass is one.
func NewHistogram(edges, weights []float64) (*Histogram, error) {
	return (*Alloc)(nil).NewHistogram(edges, weights)
}

// Alloc is a bump allocator for query-scoped histograms. The batch query
// path derives ~|C| distance histograms per query and discards them with the
// answer; allocating them through a per-worker Alloc that is Reset between
// queries removes that churn entirely in steady state. Histograms (and
// Floats slices) obtained from an Alloc are valid only until the next Reset;
// they must never be retained in results or memos. A nil *Alloc is valid and
// falls back to the ordinary heap, which is how the single-query paths run.
type Alloc struct {
	hs   []Histogram
	nh   int
	buf  []float64
	used int
}

// Reset invalidates everything allocated since the previous Reset and makes
// the storage reusable.
func (a *Alloc) Reset() {
	if a == nil {
		return
	}
	a.nh = 0
	a.used = 0
}

// Release is Reset for an arena about to sit idle: it also clears the
// histogram headers handed out since the last Reset, so the only float
// storage the arena keeps reachable is its current buffer — not the buffers
// it outgrew mid-query, which those headers still point into.
func (a *Alloc) Release() {
	clear(a.hs[:a.nh])
	a.Reset()
}

// MemBytes returns the approximate heap footprint the arena retains across
// a Release: its float buffer and its histogram headers (three slice
// headers, 72 bytes, each).
func (a *Alloc) MemBytes() int {
	return 8*cap(a.buf) + 72*cap(a.hs)
}

// Floats returns an n-element float64 slice from the arena (heap-backed for
// a nil Alloc), valid until Reset. Contents are zero only on first use of
// the backing storage; callers must overwrite every element.
func (a *Alloc) Floats(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if a.used+n > len(a.buf) {
		size := 2*len(a.buf) + n
		if size < 4096 {
			size = 4096
		}
		// Slices handed out from the old buffer stay valid — they keep it
		// alive — and are reclaimed once their holders drop after Reset.
		a.buf = make([]float64, size)
		a.used = 0
	}
	s := a.buf[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

// hist returns the next reusable histogram header.
func (a *Alloc) hist() *Histogram {
	if a.nh == len(a.hs) {
		a.hs = append(a.hs, Histogram{})
	}
	h := &a.hs[a.nh]
	a.nh++
	return h
}

// NewHistogram is NewHistogram with storage drawn from the arena. The input
// slices are copied, so callers may reuse them immediately.
func (a *Alloc) NewHistogram(edges, weights []float64) (*Histogram, error) {
	if len(edges) < 2 || len(weights) != len(edges)-1 {
		return nil, fmt.Errorf("pdf: histogram needs len(edges) == len(weights)+1 >= 2, got %d edges, %d weights",
			len(edges), len(weights))
	}
	total := 0.0
	for i, e := range edges {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return nil, fmt.Errorf("pdf: non-finite histogram edge %g", e)
		}
		if i > 0 && e <= edges[i-1] {
			return nil, fmt.Errorf("pdf: histogram edges not strictly increasing at index %d (%g <= %g)",
				i, e, edges[i-1])
		}
	}
	for i, w := range weights {
		if math.IsNaN(w) || w < 0 {
			return nil, fmt.Errorf("pdf: negative or NaN histogram weight %g at bin %d", w, i)
		}
		total += w
	}
	if total <= 0 {
		return nil, ErrEmptyHistogram
	}
	var h *Histogram
	if a == nil {
		h = &Histogram{
			edges: append([]float64(nil), edges...),
			dens:  make([]float64, len(weights)),
			cum:   make([]float64, len(edges)),
		}
	} else {
		h = a.hist()
		h.edges = a.Floats(len(edges))
		copy(h.edges, edges)
		h.dens = a.Floats(len(weights))
		h.cum = a.Floats(len(edges))
		h.cum[0] = 0
	}
	acc := 0.0
	for i, w := range weights {
		p := w / total
		h.dens[i] = p / (edges[i+1] - edges[i])
		acc += p
		h.cum[i+1] = acc
	}
	h.cum[len(h.cum)-1] = 1 // absorb rounding drift
	return h, nil
}

// MustHistogram is NewHistogram that panics on error, for tests and literals.
func MustHistogram(edges, weights []float64) *Histogram {
	h, err := NewHistogram(edges, weights)
	if err != nil {
		panic(err)
	}
	return h
}

// NumBins returns the number of bins.
func (h *Histogram) NumBins() int { return len(h.dens) }

// Edges returns the bin edges. The slice is shared; callers must not mutate.
func (h *Histogram) Edges() []float64 { return h.edges }

// MemBytes returns the approximate heap footprint of the histogram's float
// storage. Caches that retain histograms across queries (the monitor's
// per-query evaluation state) use it for memory accounting against their
// configured cap.
func (h *Histogram) MemBytes() int {
	return 8 * (len(h.edges) + len(h.dens) + len(h.cum))
}

// BinMass returns the probability mass of bin i.
func (h *Histogram) BinMass(i int) float64 { return h.cum[i+1] - h.cum[i] }

// BinDensity returns the density value of bin i.
func (h *Histogram) BinDensity(i int) float64 { return h.dens[i] }

// Density implements PDF.
func (h *Histogram) Density(x float64) float64 {
	i := h.binIndex(x)
	if i < 0 {
		return 0
	}
	return h.dens[i]
}

// CDF implements PDF. Because the density is piecewise constant, the cdf is
// piecewise linear between edges; that structure is what makes the verifiers
// exact.
func (h *Histogram) CDF(x float64) float64 {
	n := len(h.edges)
	switch {
	case x <= h.edges[0]:
		return 0
	case x >= h.edges[n-1]:
		return 1
	}
	i := h.binIndex(x)
	return h.cum[i] + h.dens[i]*(x-h.edges[i])
}

// binIndex returns the bin containing x, or -1 if x is outside the support.
// The final edge is included in the last bin so the support stays closed.
func (h *Histogram) binIndex(x float64) int {
	n := len(h.edges)
	if x < h.edges[0] || x > h.edges[n-1] {
		return -1
	}
	if x == h.edges[n-1] {
		return len(h.dens) - 1
	}
	// SearchFloat64s finds the first edge > x when we search for x+, so use
	// sort.Search on the predicate edges[i] > x directly.
	i := sort.Search(n, func(k int) bool { return h.edges[k] > x }) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// Support implements PDF.
func (h *Histogram) Support() geom.Interval {
	return geom.Interval{Lo: h.edges[0], Hi: h.edges[len(h.edges)-1]}
}

// Mean implements PDF.
func (h *Histogram) Mean() float64 {
	m := 0.0
	for i := range h.dens {
		mid := h.edges[i] + (h.edges[i+1]-h.edges[i])/2
		m += mid * h.BinMass(i)
	}
	return m
}

// Sample implements PDF using the exact inverse cdf of the histogram.
func (h *Histogram) Sample(rng *rand.Rand) float64 {
	return h.Quantile(rng.Float64())
}

// Quantile returns the smallest x with CDF(x) >= p, for p in [0, 1].
func (h *Histogram) Quantile(p float64) float64 {
	if p <= 0 {
		return h.edges[0]
	}
	if p >= 1 {
		return h.edges[len(h.edges)-1]
	}
	// Find the first edge whose cumulative probability reaches p.
	i := sort.SearchFloat64s(h.cum, p)
	if i == 0 {
		return h.edges[0]
	}
	i-- // bin index whose range covers p
	binMass := h.cum[i+1] - h.cum[i]
	if binMass <= 0 {
		return h.edges[i+1]
	}
	frac := (p - h.cum[i]) / binMass
	return h.edges[i] + frac*(h.edges[i+1]-h.edges[i])
}

// Discretize approximates an arbitrary pdf with an n-bin histogram over its
// support, assigning each bin the exact cdf mass of its range. The paper uses
// n = 300 for Gaussian uncertainty.
func Discretize(p PDF, n int) (*Histogram, error) {
	if n < 1 {
		return nil, fmt.Errorf("pdf: cannot discretize into %d bins", n)
	}
	if h, ok := p.(*Histogram); ok && h.NumBins() <= n {
		return h, nil // already exactly representable
	}
	sup := p.Support()
	edges := make([]float64, n+1)
	weights := make([]float64, n)
	step := sup.Length() / float64(n)
	edges[0] = sup.Lo
	prev := 0.0
	for i := 1; i <= n; i++ {
		edges[i] = sup.Lo + float64(i)*step
		c := p.CDF(edges[i])
		weights[i-1] = c - prev
		prev = c
	}
	edges[n] = sup.Hi // avoid accumulated rounding on the last edge
	return NewHistogram(edges, weights)
}

// inverseCDF solves CDF(x) = p by bisection over the support.
func inverseCDF(p PDF, target float64) float64 {
	sup := p.Support()
	lo, hi := sup.Lo, sup.Hi
	for i := 0; i < 64 && hi-lo > 1e-13*(1+math.Abs(hi)); i++ {
		mid := lo + (hi-lo)/2
		if p.CDF(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// Validate checks the analytic invariants every PDF must satisfy: unit mass,
// monotone cdf and agreement between density and cdf slope. It is intended
// for tests and data-ingestion checks, not hot paths.
func Validate(p PDF) error {
	sup := p.Support()
	if sup.Length() <= 0 {
		return fmt.Errorf("pdf: degenerate support %v", sup)
	}
	const steps = 256
	prev := 0.0
	for i := 0; i <= steps; i++ {
		x := sup.Lo + sup.Length()*float64(i)/steps
		c := p.CDF(x)
		if math.IsNaN(c) || c < -1e-9 || c > 1+1e-9 {
			return fmt.Errorf("pdf: cdf out of range at %g: %g", x, c)
		}
		if c < prev-1e-9 {
			return fmt.Errorf("pdf: cdf not monotone at %g: %g < %g", x, c, prev)
		}
		if d := p.Density(x); math.IsNaN(d) || d < 0 {
			return fmt.Errorf("pdf: invalid density at %g: %g", x, d)
		}
		prev = c
	}
	if math.Abs(p.CDF(sup.Hi)-1) > 1e-6 {
		return fmt.Errorf("pdf: total mass %g != 1", p.CDF(sup.Hi))
	}
	return nil
}
