package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := NewInterval(2, 6)
	if got := iv.Length(); got != 4 {
		t.Errorf("Length = %g, want 4", got)
	}
	if got := iv.Center(); got != 4 {
		t.Errorf("Center = %g, want 4", got)
	}
	if !iv.Contains(2) || !iv.Contains(6) || !iv.Contains(4) {
		t.Error("closed interval should contain its endpoints and interior")
	}
	if iv.Contains(1.999) || iv.Contains(6.001) {
		t.Error("interval contains points outside its bounds")
	}
}

func TestNewIntervalPanics(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi float64
	}{
		{"inverted", 5, 1},
		{"nan-lo", math.NaN(), 1},
		{"nan-hi", 0, math.NaN()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("NewInterval(%g, %g) did not panic", tc.lo, tc.hi)
				}
			}()
			NewInterval(tc.lo, tc.hi)
		})
	}
}

func TestIntervalIntersect(t *testing.T) {
	a := NewInterval(0, 5)
	if !a.Intersects(NewInterval(3, 8)) {
		t.Error("overlapping intervals reported disjoint")
	}
	if a.Intersects(NewInterval(6, 7)) {
		t.Error("disjoint intervals reported intersecting")
	}
	// Touching intervals intersect in a single point.
	if !a.Intersects(NewInterval(5, 9)) {
		t.Error("touching intervals reported disjoint")
	}
}

func TestIntervalUnionContains(t *testing.T) {
	a := NewInterval(0, 2)
	b := NewInterval(5, 7)
	u := a.Union(b)
	if u.Lo != 0 || u.Hi != 7 {
		t.Errorf("Union = %v, want [0,7]", u)
	}
	if !u.Contains(a.Lo) || !u.Contains(a.Hi) || !u.Contains(b.Lo) || !u.Contains(b.Hi) {
		t.Error("union does not contain its inputs")
	}
}

func TestIntervalMinMaxDist(t *testing.T) {
	iv := NewInterval(10, 20)
	cases := []struct {
		q        float64
		min, max float64
	}{
		{5, 5, 15},  // left of interval
		{25, 5, 15}, // right of interval
		{15, 0, 5},  // inside, centered
		{12, 0, 8},  // inside, off-center
		{10, 0, 10}, // on left endpoint
		{20, 0, 10}, // on right endpoint
		{-10, 20, 30},
	}
	for _, tc := range cases {
		if got := iv.MinDist(tc.q); got != tc.min {
			t.Errorf("MinDist(%g) = %g, want %g", tc.q, got, tc.min)
		}
		if got := iv.MaxDist(tc.q); got != tc.max {
			t.Errorf("MaxDist(%g) = %g, want %g", tc.q, got, tc.max)
		}
	}
}

func TestIntervalMinMaxDistProperty(t *testing.T) {
	// For any interval and query, MinDist <= |x-q| <= MaxDist for sampled x.
	f := func(a, b, q, frac float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		// Restrict to a range where interval arithmetic cannot overflow;
		// the engine operates on bounded spatial domains anyway.
		const lim = 1e12
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsNaN(q) ||
			math.Abs(lo) > lim || math.Abs(hi) > lim || math.Abs(q) > lim {
			return true
		}
		iv := NewInterval(lo, hi)
		fr := math.Abs(math.Mod(frac, 1))
		x := lo + fr*(hi-lo)
		d := math.Abs(x - q)
		const eps = 1e-9
		return iv.MinDist(q) <= d+eps && d <= iv.MaxDist(q)+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 2}
	if got := r.Area(); got != 8 {
		t.Errorf("Area = %g, want 8", got)
	}
	if c := r.Center(); c.X != 2 || c.Y != 1 {
		t.Errorf("Center = %v, want (2,1)", c)
	}
	if !r.IsValid() {
		t.Error("valid rect reported invalid")
	}
	bad := Rect{MinX: 5, MaxX: 1}
	if bad.IsValid() {
		t.Error("inverted rect reported valid")
	}
	nan := Rect{MinX: math.NaN()}
	if nan.IsValid() {
		t.Error("NaN rect reported valid")
	}
}

func TestRectUnionIntersects(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 1, 3, 3}
	c := Rect{5, 5, 6, 6}
	u := a.Union(b)
	if u != (Rect{0, 0, 3, 3}) {
		t.Errorf("Union = %v", u)
	}
	if !a.Intersects(b) || a.Intersects(c) {
		t.Error("Intersects wrong")
	}
	if !u.Contains(a) || !u.Contains(b) || u.Contains(Rect{-1, 0, 2, 2}) {
		t.Error("Contains wrong")
	}
}

func TestRectMinMaxDist(t *testing.T) {
	r := Rect{1, 1, 3, 3}
	inside := Point{2, 2}
	if got := r.MinDist(inside); got != 0 {
		t.Errorf("MinDist(inside) = %g, want 0", got)
	}
	q := Point{0, 2} // 1 left of the rect
	if got := r.MinDist(q); got != 1 {
		t.Errorf("MinDist = %g, want 1", got)
	}
	wantMax := math.Hypot(3, 1) // to corner (3,1) or (3,3)
	if got := r.MaxDist(q); math.Abs(got-wantMax) > 1e-12 {
		t.Errorf("MaxDist = %g, want %g", got, wantMax)
	}
}

func TestRectMinMaxDistSandwich(t *testing.T) {
	// MINDIST <= MINMAXDIST <= MAXDIST must always hold.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		x1, y1 := rng.Float64()*100, rng.Float64()*100
		r := Rect{x1, y1, x1 + rng.Float64()*50, y1 + rng.Float64()*50}
		q := Point{rng.Float64()*200 - 50, rng.Float64()*200 - 50}
		lo, mid, hi := r.MinDist(q), r.MinMaxDist(q), r.MaxDist(q)
		if lo > mid+1e-9 || mid > hi+1e-9 {
			t.Fatalf("MINDIST %g <= MINMAXDIST %g <= MAXDIST %g violated for %v, q=%v",
				lo, mid, hi, r, q)
		}
	}
}

// TestHypotZeroYMatchesMath holds the zero-y fast path to math.Hypot bit for
// bit: signed zeros, infinities, subnormals, the float extremes and random
// magnitudes, against both signs of a zero y. NaN must stay NaN.
func TestHypotZeroYMatchesMath(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1060, 0x1.8p-1040,
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1, 3e-300, -7e300}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		xs = append(xs, math.Ldexp(rng.Float64()-0.5, rng.Intn(2100)-1075))
	}
	for _, x := range xs {
		for _, y := range []float64{0, math.Copysign(0, -1)} {
			if got, want := hypot(x, y), math.Hypot(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("hypot(%g, %g) = %g (%#x), math.Hypot %g (%#x)",
					x, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	if !math.IsNaN(hypot(math.NaN(), 0)) {
		t.Fatal("hypot(NaN, 0) is not NaN")
	}
	// A non-zero y still goes through math.Hypot.
	if got := hypot(3, 4); got != 5 {
		t.Fatalf("hypot(3, 4) = %g", got)
	}
}

func TestRectIntervalRoundTrip(t *testing.T) {
	iv := NewInterval(3, 9)
	r := RectFromInterval(iv)
	if r.Interval() != iv {
		t.Errorf("round trip gave %v, want %v", r.Interval(), iv)
	}
	if r.MinY != 0 || r.MaxY != 0 {
		t.Error("interval embedding should be flat on y")
	}
	// 1-D distances must agree with the rect metrics on the embedding.
	for _, q := range []float64{-5, 3, 6, 9, 14} {
		p := Point{q, 0}
		if iv.MinDist(q) != r.MinDist(p) {
			t.Errorf("MinDist mismatch at q=%g: %g vs %g", q, iv.MinDist(q), r.MinDist(p))
		}
		if iv.MaxDist(q) != r.MaxDist(p) {
			t.Errorf("MaxDist mismatch at q=%g: %g vs %g", q, iv.MaxDist(q), r.MaxDist(p))
		}
	}
}

func TestCircleDistances(t *testing.T) {
	c := Circle{Center: Point{0, 0}, Radius: 2}
	if got := c.MinDist(Point{5, 0}); got != 3 {
		t.Errorf("MinDist = %g, want 3", got)
	}
	if got := c.MaxDist(Point{5, 0}); got != 7 {
		t.Errorf("MaxDist = %g, want 7", got)
	}
	if got := c.MinDist(Point{1, 0}); got != 0 {
		t.Errorf("MinDist inside = %g, want 0", got)
	}
	if !c.Contains(Point{1, 1}) || c.Contains(Point{2, 2}) {
		t.Error("Contains wrong")
	}
}

func TestLensAreaKnownCases(t *testing.T) {
	a := Circle{Point{0, 0}, 1}
	// Disjoint.
	if got := LensArea(a, Circle{Point{3, 0}, 1}); got != 0 {
		t.Errorf("disjoint lens area = %g, want 0", got)
	}
	// Contained: smaller circle fully inside.
	small := Circle{Point{0.1, 0}, 0.2}
	if got := LensArea(a, small); math.Abs(got-small.Area()) > 1e-12 {
		t.Errorf("contained lens area = %g, want %g", got, small.Area())
	}
	// Identical circles: full area.
	if got := LensArea(a, a); math.Abs(got-a.Area()) > 1e-12 {
		t.Errorf("identical lens area = %g, want %g", got, a.Area())
	}
	// Two unit circles at distance 1: known closed form
	// 2*acos(1/2) - sqrt(3)/2*... = 2*(pi/3) - sqrt(3)/2 per circle segment sum.
	want := 2*math.Pi/3 - math.Sqrt(3)/2
	got := LensArea(a, Circle{Point{1, 0}, 1})
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("unit lens area = %g, want %g", got, want)
	}
}

func TestLensAreaMonotoneInRadius(t *testing.T) {
	// Growing the probe radius never shrinks the lens: this is the property
	// that makes circle-based distance cdfs monotone.
	c := Circle{Point{0, 0}, 3}
	q := Point{4, 1}
	prev := 0.0
	for r := 0.0; r <= 12; r += 0.25 {
		area := LensArea(c, Circle{q, r})
		if area < prev-1e-12 {
			t.Fatalf("lens area decreased at r=%g: %g < %g", r, area, prev)
		}
		prev = area
	}
	// And it saturates at the full region area.
	if math.Abs(prev-c.Area()) > 1e-9 {
		t.Errorf("lens area did not saturate: %g vs %g", prev, c.Area())
	}
}
