package pdf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestUniformBasics(t *testing.T) {
	u := MustUniform(2, 6)
	if got := u.Density(4); got != 0.25 {
		t.Errorf("Density = %g, want 0.25", got)
	}
	if got := u.Density(1); got != 0 {
		t.Errorf("Density outside = %g, want 0", got)
	}
	if got := u.CDF(2); got != 0 {
		t.Errorf("CDF(lo) = %g, want 0", got)
	}
	if got := u.CDF(6); got != 1 {
		t.Errorf("CDF(hi) = %g, want 1", got)
	}
	if got := u.CDF(4); got != 0.5 {
		t.Errorf("CDF(mid) = %g, want 0.5", got)
	}
	if got := u.Mean(); got != 4 {
		t.Errorf("Mean = %g, want 4", got)
	}
}

func TestNewUniformErrors(t *testing.T) {
	for _, tc := range [][2]float64{{5, 5}, {6, 2}, {math.NaN(), 1}, {0, math.NaN()}} {
		if _, err := NewUniform(tc[0], tc[1]); err == nil {
			t.Errorf("NewUniform(%g, %g) succeeded, want error", tc[0], tc[1])
		}
	}
}

func TestTruncGaussianSymmetric(t *testing.T) {
	g, err := PaperGaussian(0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Mean(); math.Abs(got-6) > 1e-9 {
		t.Errorf("Mean = %g, want 6 (symmetric truncation)", got)
	}
	if got := g.CDF(6); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CDF(mean) = %g, want 0.5", got)
	}
	// Symmetry of the density.
	if d1, d2 := g.Density(4), g.Density(8); math.Abs(d1-d2) > 1e-12 {
		t.Errorf("density not symmetric: %g vs %g", d1, d2)
	}
	// Density integrates to ~1 (trapezoid check).
	sum := 0.0
	const n = 2000
	for i := 0; i < n; i++ {
		x := 12 * (float64(i) + 0.5) / n
		sum += g.Density(x) * 12 / n
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Errorf("density mass = %g, want 1", sum)
	}
}

func TestTruncGaussianAsymmetric(t *testing.T) {
	// Mean far to the left of the window: mass should lean left.
	g, err := NewTruncGaussian(0, 10, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Mean() >= 5 {
		t.Errorf("Mean = %g, expected < 5 for left-leaning truncation", g.Mean())
	}
	if err := Validate(g); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestTruncGaussianErrors(t *testing.T) {
	if _, err := NewTruncGaussian(0, 10, 5, 0); err == nil {
		t.Error("sigma=0 accepted")
	}
	if _, err := NewTruncGaussian(0, 10, 5, -1); err == nil {
		t.Error("negative sigma accepted")
	}
	if _, err := NewTruncGaussian(5, 5, 5, 1); err == nil {
		t.Error("degenerate support accepted")
	}
	// A Gaussian 1000 sigmas away has no representable mass in the window.
	if _, err := NewTruncGaussian(0, 1, 1000, 0.1); err == nil {
		t.Error("zero-mass truncation accepted")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := MustHistogram([]float64{0, 1, 3}, []float64{1, 1})
	// Two bins with equal mass 0.5; densities 0.5 and 0.25.
	if got := h.Density(0.5); got != 0.5 {
		t.Errorf("Density bin0 = %g, want 0.5", got)
	}
	if got := h.Density(2); got != 0.25 {
		t.Errorf("Density bin1 = %g, want 0.25", got)
	}
	if got := h.CDF(1); got != 0.5 {
		t.Errorf("CDF(1) = %g, want 0.5", got)
	}
	if got := h.CDF(2); got != 0.75 {
		t.Errorf("CDF(2) = %g, want 0.75", got)
	}
	if got := h.Mean(); math.Abs(got-(0.5*0.5+2*0.5)) > 1e-12 {
		t.Errorf("Mean = %g, want 1.25", got)
	}
	if got := h.BinMass(0); got != 0.5 {
		t.Errorf("BinMass(0) = %g, want 0.5", got)
	}
	if h.NumBins() != 2 {
		t.Errorf("NumBins = %d, want 2", h.NumBins())
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := MustHistogram([]float64{0, 1, 2, 3}, []float64{1, 0, 1})
	// Zero-weight middle bin: density zero, cdf flat.
	if got := h.Density(1.5); got != 0 {
		t.Errorf("Density in empty bin = %g, want 0", got)
	}
	if h.CDF(1) != h.CDF(2) {
		t.Errorf("cdf not flat over empty bin: %g vs %g", h.CDF(1), h.CDF(2))
	}
	// Support endpoints are included.
	if got := h.Density(3); got != 0.5 {
		t.Errorf("Density at last edge = %g, want 0.5", got)
	}
	if got := h.Density(3.0001); got != 0 {
		t.Errorf("Density beyond support = %g, want 0", got)
	}
	if got := h.CDF(-1); got != 0 {
		t.Errorf("CDF left of support = %g", got)
	}
	if got := h.CDF(99); got != 1 {
		t.Errorf("CDF right of support = %g", got)
	}
}

func TestNewHistogramErrors(t *testing.T) {
	cases := []struct {
		name    string
		edges   []float64
		weights []float64
	}{
		{"too-few-edges", []float64{1}, nil},
		{"len-mismatch", []float64{0, 1, 2}, []float64{1}},
		{"non-increasing", []float64{0, 0, 1}, []float64{1, 1}},
		{"decreasing", []float64{0, 2, 1}, []float64{1, 1}},
		{"negative-weight", []float64{0, 1, 2}, []float64{1, -1}},
		{"nan-weight", []float64{0, 1}, []float64{math.NaN()}},
		{"nan-edge", []float64{0, math.NaN()}, []float64{1}},
		{"inf-edge", []float64{0, math.Inf(1)}, []float64{1}},
		{"zero-mass", []float64{0, 1, 2}, []float64{0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewHistogram(tc.edges, tc.weights); err == nil {
				t.Error("invalid histogram accepted")
			}
		})
	}
}

func TestHistogramQuantileRoundTrip(t *testing.T) {
	h := MustHistogram([]float64{0, 2, 5, 6}, []float64{2, 3, 5})
	for _, p := range []float64{0, 0.1, 0.2, 0.5, 0.9, 1} {
		x := h.Quantile(p)
		if got := h.CDF(x); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%g)) = %g", p, got)
		}
	}
	if h.Quantile(-0.5) != 0 || h.Quantile(1.5) != 6 {
		t.Error("quantile clamping wrong")
	}
}

func TestDiscretizeGaussian(t *testing.T) {
	g, err := PaperGaussian(0, 12)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Discretize(g, 300)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumBins() != 300 {
		t.Fatalf("NumBins = %d, want 300", h.NumBins())
	}
	// The discretization must agree with the source cdf at every edge.
	for _, x := range []float64{0, 1, 3, 6, 9, 11.999, 12} {
		if diff := math.Abs(h.CDF(x) - g.CDF(x)); diff > 1e-2 {
			t.Errorf("CDF mismatch at %g: %g", x, diff)
		}
	}
	// Mean is preserved closely for a symmetric density.
	if diff := math.Abs(h.Mean() - g.Mean()); diff > 1e-3 {
		t.Errorf("mean drift %g", diff)
	}
	if err := Validate(h); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDiscretizeHistogramPassthrough(t *testing.T) {
	h := MustHistogram([]float64{0, 1, 2}, []float64{1, 1})
	got, err := Discretize(h, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Error("small histogram should pass through unchanged")
	}
	if _, err := Discretize(h, 0); err == nil {
		t.Error("zero bins accepted")
	}
}

func TestSampleWithinSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := []PDF{
		MustUniform(5, 9),
		MustHistogram([]float64{0, 1, 4}, []float64{1, 2}),
	}
	if g, err := PaperGaussian(-3, 3); err == nil {
		dists = append(dists, g)
	} else {
		t.Fatal(err)
	}
	for _, d := range dists {
		sup := d.Support()
		sum := 0.0
		const n = 2000
		for i := 0; i < n; i++ {
			x := d.Sample(rng)
			if !sup.Contains(x) {
				t.Fatalf("sample %g outside support %v", x, sup)
			}
			sum += x
		}
		if diff := math.Abs(sum/n - d.Mean()); diff > 0.15 {
			t.Errorf("sample mean %g far from %g", sum/n, d.Mean())
		}
	}
}

func TestValidateCatchesBrokenPDF(t *testing.T) {
	if err := Validate(brokenPDF{}); err == nil {
		t.Error("Validate accepted a non-monotone cdf")
	}
}

// brokenPDF deliberately violates cdf monotonicity.
type brokenPDF struct{}

func (brokenPDF) Density(x float64) float64     { return 1 }
func (brokenPDF) CDF(x float64) float64         { return math.Sin(3 * x) }
func (brokenPDF) Support() geom.Interval        { return geom.Interval{Lo: 0, Hi: 10} }
func (brokenPDF) Mean() float64                 { return 5 }
func (brokenPDF) Sample(rng *rand.Rand) float64 { return 5 }

func TestHistogramPropertyCDFDensityConsistency(t *testing.T) {
	// For random histograms, the cdf difference across a bin equals
	// density * width, and cdf is within [0,1] and monotone.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		edges := make([]float64, n+1)
		x := rng.Float64() * 10
		for i := range edges {
			edges[i] = x
			x += 0.01 + rng.Float64()*5
		}
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64() * 3
		}
		weights[rng.Intn(n)] += 0.5 // guarantee mass
		h, err := NewHistogram(edges, weights)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			lhs := h.CDF(edges[i+1]) - h.CDF(edges[i])
			rhs := h.BinDensity(i) * (edges[i+1] - edges[i])
			if math.Abs(lhs-rhs) > 1e-9 {
				return false
			}
		}
		return Validate(h) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramPropertyQuantileInverse(t *testing.T) {
	f := func(seed int64, p float64) bool {
		p = math.Abs(math.Mod(p, 1))
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		edges := make([]float64, n+1)
		x := 0.0
		for i := range edges {
			edges[i] = x
			x += 0.1 + rng.Float64()
		}
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64()
		}
		weights[0] += 0.1
		h, err := NewHistogram(edges, weights)
		if err != nil {
			return false
		}
		q := h.Quantile(p)
		return math.Abs(h.CDF(q)-p) < 1e-9 || q == edges[0] || q == edges[n]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
