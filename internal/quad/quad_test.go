package quad

import (
	"math"
	"testing"
)

func TestGaussLegendreNodeCount(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 10, 49, 96} {
		nodes, weights, err := GaussLegendre(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(nodes) != n || len(weights) != n {
			t.Fatalf("n=%d: got %d nodes, %d weights", n, len(nodes), len(weights))
		}
		// Weights sum to 2 (the measure of [-1,1]).
		sum := 0.0
		for _, w := range weights {
			sum += w
		}
		if math.Abs(sum-2) > 1e-12 {
			t.Errorf("n=%d: weight sum = %.15f", n, sum)
		}
		// Nodes are inside (-1,1), ascending, and symmetric.
		for i, x := range nodes {
			if x <= -1 || x >= 1 {
				t.Errorf("n=%d: node %g outside (-1,1)", n, x)
			}
			if i > 0 && nodes[i] <= nodes[i-1] {
				t.Errorf("n=%d: nodes not ascending", n)
			}
			if math.Abs(nodes[i]+nodes[n-1-i]) > 1e-12 {
				t.Errorf("n=%d: nodes not symmetric", n)
			}
		}
	}
}

func TestGaussLegendreBounds(t *testing.T) {
	if _, _, err := GaussLegendre(0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, _, err := GaussLegendre(MaxGaussNodes + 1); err == nil {
		t.Error("oversized rule accepted")
	}
}

func TestGLExactForPolynomials(t *testing.T) {
	// n-point GL is exact up to degree 2n-1.
	for _, n := range []int{1, 2, 3, 8, 49} {
		deg := 2*n - 1
		f := func(x float64) float64 { return math.Pow(x, float64(deg)) }
		// Integrate x^deg over [0, 2]: 2^(deg+1)/(deg+1).
		want := math.Pow(2, float64(deg+1)) / float64(deg+1)
		got, err := GL(f, 0, 2, n)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got-want) / want; rel > 1e-10 {
			t.Errorf("n=%d deg=%d: got %g, want %g (rel %g)", n, deg, got, want, rel)
		}
	}
}

func TestGLKnownIntegrals(t *testing.T) {
	got, err := GL(math.Sin, 0, math.Pi, 24)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("∫sin over [0,π] = %.15f, want 2", got)
	}
	got, err = GL(math.Exp, 0, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-(math.E-1)) > 1e-12 {
		t.Errorf("∫exp over [0,1] = %.15f", got)
	}
}

func TestGLEdges(t *testing.T) {
	if got, err := GL(math.Sin, 3, 3, 8); err != nil || got != 0 {
		t.Errorf("empty range: %g, %v", got, err)
	}
	if _, err := GL(math.Sin, 2, 1, 8); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestSimpson(t *testing.T) {
	got, err := Simpson(func(x float64) float64 { return x * x }, 0, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-9) > 1e-10 {
		t.Errorf("∫x² over [0,3] = %g, want 9", got)
	}
	// Odd interval counts are rounded up, not rejected.
	got, err = Simpson(func(x float64) float64 { return x }, 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("odd-n simpson = %g", got)
	}
	if _, err := Simpson(math.Sin, 0, 1, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Simpson(math.Sin, 1, 0, 10); err == nil {
		t.Error("inverted range accepted")
	}
	if got, _ := Simpson(math.Sin, 2, 2, 10); got != 0 {
		t.Error("degenerate range not zero")
	}
}

func TestProductOfLinearsExactness(t *testing.T) {
	// The refinement integrand is a product of c linear cdf terms; check GL
	// with ceil((c+1)/2) nodes integrates it exactly against a fine composite
	// Simpson grid (an independent rule; h⁴ error far below the tolerance).
	c := 30
	f := func(r float64) float64 {
		v := 1.0
		for k := 0; k < c; k++ {
			v *= 1 - (0.01*float64(k)*r+0.001)/2
		}
		return v
	}
	n := (c + 2) / 2
	exact, err := Simpson(f, 0, 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GL(f, 0, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-exact) > 1e-10 {
		t.Errorf("GL(%d nodes) = %.14f, simpson = %.14f", n, got, exact)
	}
}
