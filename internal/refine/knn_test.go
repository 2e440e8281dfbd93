package refine

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pdf"
	"repro/internal/quad"
	"repro/internal/subregion"
)

// randomDistances draws up to 8 distance histograms, some with empty bins
// (a cdf that stalls strictly between 0 and 1), all starting in [0, 12).
func randomDistances(rng *rand.Rand) []*pdf.Histogram {
	hs := make([]*pdf.Histogram, 1+rng.Intn(8))
	for i := range hs {
		bins := 1 + rng.Intn(4)
		edges, weights := make([]float64, bins+1), make([]float64, bins)
		edges[0] = rng.Float64() * 12
		for b := range weights {
			edges[b+1] = edges[b] + 0.5 + rng.Float64()*6
			if rng.Intn(4) > 0 {
				weights[b] = 0.1 + rng.Float64()
			}
		}
		weights[rng.Intn(bins)] += 0.5 // never all empty
		hs[i] = pdf.MustHistogram(edges, weights)
	}
	return hs
}

// enumerateKNN is the reference ExactAll is held to, sharing none of its
// machinery: for object i it integrates d_i(r) · Pr(at most k−1 others lie
// within r) over the raw breakpoints of every histogram, with the cdfs read
// off the histograms and the probability summed over every subset of the
// others. Between two breakpoints the integrand is a polynomial of degree
// below len(hs), which a 16-node Gauss–Legendre rule integrates exactly.
func enumerateKNN(t *testing.T, hs []*pdf.Histogram, k int) []float64 {
	t.Helper()
	var pts []float64
	for _, h := range hs {
		pts = append(pts, h.Edges()...)
	}
	slices.Sort(pts)
	pts = slices.Compact(pts)
	n := len(hs)
	out := make([]float64, n)
	for i := range hs {
		f := func(r float64) float64 {
			g := 0.0
			for set := 0; set < 1<<n; set++ {
				if set&(1<<i) != 0 || popcount(set) > k-1 {
					continue
				}
				p := 1.0
				for a, h := range hs {
					switch {
					case a == i:
					case set&(1<<a) != 0:
						p *= h.CDF(r)
					default:
						p *= 1 - h.CDF(r)
					}
				}
				g += p
			}
			return hs[i].Density(r) * g
		}
		for s := 1; s < len(pts); s++ {
			v, err := quad.GL(f, pts[s-1], pts[s], 16)
			if err != nil {
				t.Fatal(err)
			}
			out[i] += v
		}
	}
	return out
}

func popcount(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// tableFor filters hs to the candidates of a k-NN query — the objects whose
// near point does not exceed f_k, the k-th smallest far point — and builds
// their table.
func tableFor(t *testing.T, hs []*pdf.Histogram, k int) *subregion.Table {
	t.Helper()
	fars := make([]float64, len(hs))
	for i, h := range hs {
		fars[i] = h.Support().Hi
	}
	slices.Sort(fars)
	fk := fars[min(k, len(fars))-1]
	var cands []subregion.Candidate
	for i, h := range hs {
		if h.Support().Lo <= fk {
			cands = append(cands, subregion.Candidate{ID: i, Dist: h})
		}
	}
	var tb subregion.Table
	if err := tb.Rebuild(cands, k); err != nil {
		t.Fatal(err)
	}
	return &tb
}

// TestKNNExactMatchesEnumeration holds ExactAll to brute-force enumeration
// on random histogram sets of up to 8 objects: every candidate's value
// agrees within 1e-12, and every object the cut prunes has probability 0.
func TestKNNExactMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(2009))
	for trial := 0; trial < 200; trial++ {
		hs := randomDistances(rng)
		for _, k := range []int{1, 2, 3, 5} {
			tb := tableFor(t, hs, k)
			got, err := ExactAll(tb)
			if err != nil {
				t.Fatal(err)
			}
			want := enumerateKNN(t, hs, k)
			for i, p := range got {
				id := tb.IDs()[i]
				if math.Abs(p-want[id]) > 1e-12 {
					t.Fatalf("trial %d k=%d object %d: ExactAll %.17g, enumeration %.17g", trial, k, id, p, want[id])
				}
				want[id] = 0
			}
			for id, p := range want {
				if p > 1e-12 {
					t.Fatalf("trial %d k=%d: pruned object %d has probability %g", trial, k, id, p)
				}
			}
		}
	}
}

// TestKNNExactAtKOneIsExact: at k = 1 ExactAll is the qualification
// probability, so it must agree with Exact candidate by candidate.
func TestKNNExactAtKOneIsExact(t *testing.T) {
	tables := []*subregion.Table{handTable(t)}
	for seed := int64(1); seed <= 200; seed++ {
		if tb := randomTable(seed); tb != nil {
			tables = append(tables, tb)
		}
	}
	for n, tb := range tables {
		got, err := ExactAll(tb)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range got {
			want, err := Exact(tb, i, 0)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(p-want) > 1e-12 {
				t.Fatalf("table %d candidate %d: ExactAll %.17g, Exact %.17g", n, i, p, want)
			}
		}
	}
}

// TestKNNExactAllAtKBeyondCandidates: with k >= |C| every candidate is among
// the k nearest, so ExactAll answers 1 each and allocates only its result —
// no count distribution as wide as k.
func TestKNNExactAllAtKBeyondCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var hs []*pdf.Histogram
	for len(hs) < 200 {
		hs = append(hs, randomDistances(rng)...)
	}
	for _, k := range []int{len(hs), 1 << 40} {
		tb := tableFor(t, hs, k)
		var got []float64
		allocs := testing.AllocsPerRun(3, func() {
			var err error
			if got, err = ExactAll(tb); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("k=%d: ExactAll made %v allocations, want 1", k, allocs)
		}
		for i, p := range got {
			if p != 1 {
				t.Fatalf("k=%d candidate %d: p = %g, want 1", k, i, p)
			}
		}
	}
}

// TestKNNReducedRuleMatchesExactRule: deep in an overlap ExactAll integrates
// with the few nodes its remainder bound allows, not half the candidate
// count. On 60 distance pdfs that all start at 0 it must agree within 1e-13
// with a plain per-candidate count DP integrated by the exact-size rule.
func TestKNNReducedRuleMatchesExactRule(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	hs := make([]*pdf.Histogram, 60)
	for i := range hs {
		// The distance from a query inside [q−a, q+b], a < b: density 2 up to
		// a, 1 beyond.
		a := 1 + rng.Float64()*20
		b := a + 0.5 + rng.Float64()*20
		hs[i] = pdf.MustHistogram([]float64{0, a, b}, []float64{2 * a, b - a})
	}
	for _, k := range []int{1, 3, 10} {
		tb := tableFor(t, hs, k)
		got, err := ExactAll(tb)
		if err != nil {
			t.Fatal(err)
		}
		nC := tb.NumCandidates()
		for i := range got {
			want := 0.0
			for j := 0; j < tb.NumSubregions()-1; j++ {
				if tb.S(i, j) == 0 {
					continue
				}
				nodes, weights, err := quad.GaussLegendre(autoGLNodes(tb.Count(j)))
				if err != nil {
					t.Fatal(err)
				}
				avg := 0.0
				for l, x := range nodes {
					frac := (x + 1) / 2
					dist := make([]float64, k) // counts 0..k−1 of the others within r
					dist[0] = 1
					for o := 0; o < nC; o++ {
						if o == i {
							continue
						}
						d := tb.D(o, j) + (tb.D(o, j+1)-tb.D(o, j))*frac
						for c := k - 1; c > 0; c-- {
							dist[c] = dist[c]*(1-d) + dist[c-1]*d
						}
						dist[0] *= 1 - d
					}
					g := 0.0
					for _, p := range dist {
						g += p
					}
					avg += weights[l] / 2 * g
				}
				want += tb.S(i, j) * avg
			}
			if math.Abs(got[i]-want) > 1e-13 {
				t.Fatalf("k=%d candidate %d: ExactAll %.17g, exact-size rule %.17g", k, i, got[i], want)
			}
		}
	}
}
