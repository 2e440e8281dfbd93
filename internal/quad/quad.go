// Package quad provides the numerical integration routines used by the
// refinement phase: Gauss–Legendre quadrature (exact for polynomials, which
// is what per-subregion qualification integrands are) and composite Simpson
// rules (the paper-style "plain numerical integration" of the Basic method).
package quad

import (
	"fmt"
	"math"
	"sync"
)

// MaxGaussNodes bounds the cached Gauss–Legendre rule size.
const MaxGaussNodes = 256

// glRules caches every rule size; a rule is computed on first use, and a
// cached read takes no lock, so concurrent refinements never serialize here.
var glRules [MaxGaussNodes + 1]struct {
	once sync.Once
	glRule
}

type glRule struct {
	nodes, weights []float64
}

// GaussLegendre returns the n-point Gauss–Legendre nodes and weights on
// [-1, 1]. Rules are computed once and cached. The returned slices are
// shared; callers must not mutate them.
func GaussLegendre(n int) (nodes, weights []float64, err error) {
	if n < 1 || n > MaxGaussNodes {
		return nil, nil, fmt.Errorf("quad: gauss rule size %d outside [1, %d]", n, MaxGaussNodes)
	}
	r := &glRules[n]
	r.once.Do(func() { r.glRule = computeGaussLegendre(n) })
	return r.nodes, r.weights, nil
}

// computeGaussLegendre finds the roots of the Legendre polynomial P_n by
// Newton iteration from the Chebyshev-like initial guesses, the standard
// Golub-free construction adequate for n <= 256.
func computeGaussLegendre(n int) glRule {
	nodes := make([]float64, n)
	weights := make([]float64, n)
	for i := 0; i < (n+1)/2; i++ {
		// Initial guess for the i-th root (descending order).
		x := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var dp float64
		for iter := 0; iter < 100; iter++ {
			p, d := legendre(n, x)
			dp = d
			dx := p / d
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		w := 2 / ((1 - x*x) * dp * dp)
		nodes[i] = -x
		nodes[n-1-i] = x
		weights[i] = w
		weights[n-1-i] = w
	}
	if n%2 == 1 {
		// The middle node of an odd rule is exactly zero.
		nodes[n/2] = 0
		_, d := legendre(n, 0)
		weights[n/2] = 2 / (d * d)
	}
	return glRule{nodes: nodes, weights: weights}
}

// legendre evaluates P_n(x) and its derivative by the three-term recurrence.
func legendre(n int, x float64) (p, dp float64) {
	p0, p1 := 1.0, x
	for k := 2; k <= n; k++ {
		p0, p1 = p1, ((2*float64(k)-1)*x*p1-(float64(k)-1)*p0)/float64(k)
	}
	if n == 0 {
		return 1, 0
	}
	if n == 1 {
		return x, 1
	}
	dp = float64(n) * (x*p1 - p0) / (x*x - 1)
	return p1, dp
}

// GL integrates f over [a, b] with the n-point Gauss–Legendre rule. It is
// exact for polynomials of degree <= 2n-1.
func GL(f func(float64) float64, a, b float64, n int) (float64, error) {
	if b < a {
		return 0, fmt.Errorf("quad: inverted range [%g, %g]", a, b)
	}
	if a == b {
		return 0, nil
	}
	nodes, weights, err := GaussLegendre(n)
	if err != nil {
		return 0, err
	}
	half := (b - a) / 2
	mid := a + half
	sum := 0.0
	for i, x := range nodes {
		sum += weights[i] * f(mid+half*x)
	}
	return sum * half, nil
}

// Simpson integrates f over [a, b] with the composite Simpson rule on n
// sub-intervals (n is rounded up to the next even number). This is the
// fixed-precision integration style of the paper's Basic method.
func Simpson(f func(float64) float64, a, b float64, n int) (float64, error) {
	if b < a {
		return 0, fmt.Errorf("quad: inverted range [%g, %g]", a, b)
	}
	if n < 2 {
		return 0, fmt.Errorf("quad: simpson needs at least 2 intervals, got %d", n)
	}
	if a == b {
		return 0, nil
	}
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	return sum * h / 3, nil
}
